package sim

import (
	"errors"
	"fmt"
	"testing"
)

// pingPayload is a minimal payload for substrate tests.
type pingPayload struct {
	Hop int
}

func (pingPayload) Kind() string { return "test/ping" }
func (pingPayload) Size() int    { return 8 }

// flooder sends one ping to every process on Init and re-sends with
// decremented hop count on delivery until hops are exhausted.
type flooder struct {
	id       ProcID
	hops     int
	received int
}

func (f *flooder) ID() ProcID { return f.id }

func (f *flooder) Init(ctx Context) {
	for p := 1; p <= ctx.N(); p++ {
		ctx.Send(ProcID(p), pingPayload{Hop: f.hops})
	}
}

func (f *flooder) Deliver(ctx Context, m Message) {
	f.received++
	p, ok := m.Payload.(pingPayload)
	if !ok || p.Hop <= 0 {
		return
	}
	ctx.Send(m.From, pingPayload{Hop: p.Hop - 1})
}

func newFloodNet(t *testing.T, n, hops int, seed int64, opts ...NetworkOption) (*Network, []*flooder) {
	t.Helper()
	nw := NewNetwork(n, (n-1)/3, seed, opts...)
	procs := make([]*flooder, 0, n)
	for p := 1; p <= n; p++ {
		f := &flooder{id: ProcID(p), hops: hops}
		procs = append(procs, f)
		if err := nw.Register(f); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	return nw, procs
}

func TestNetworkRunsToQuiescence(t *testing.T) {
	nw, procs := newFloodNet(t, 4, 3, 1)
	steps, err := nw.Run(100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !nw.Quiescent() {
		t.Error("network not quiescent after Run")
	}
	// Each of 4 processes initiates 4 pings with 3 hops: each chain is
	// ping + 3 bounces = 4 deliveries; 16 chains -> 64 deliveries.
	if steps != 64 {
		t.Errorf("steps = %d, want 64", steps)
	}
	total := 0
	for _, f := range procs {
		total += f.received
	}
	if total != 64 {
		t.Errorf("total received = %d, want 64", total)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	trace1 := make([]uint64, 0, 64)
	trace2 := make([]uint64, 0, 64)
	run := func(trace *[]uint64) {
		nw, _ := newFloodNet(t, 5, 4, 42, WithDeliverHook(func(m Message) {
			*trace = append(*trace, m.Seq)
		}))
		if _, err := nw.Run(1000000); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run(&trace1)
	run(&trace2)
	if len(trace1) != len(trace2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(trace1), len(trace2))
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, trace1[i], trace2[i])
		}
	}
}

func TestNetworkDifferentSeedsDiffer(t *testing.T) {
	sig := func(seed int64) string {
		var s string
		nw, _ := newFloodNet(t, 5, 4, seed, WithDeliverHook(func(m Message) {
			s += fmt.Sprintf("%d,", m.Seq)
		}))
		if _, err := nw.Run(1000000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return s
	}
	if sig(1) == sig(2) {
		t.Error("different seeds produced identical delivery orders (unlikely)")
	}
}

func TestNetworkStepLimit(t *testing.T) {
	nw, _ := newFloodNet(t, 4, 1000000, 3)
	_, err := nw.Run(50)
	var lim ErrStepLimit
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if lim.Steps != 50 {
		t.Errorf("limit steps = %d, want 50", lim.Steps)
	}
}

func TestNetworkRunUntilCondition(t *testing.T) {
	nw, procs := newFloodNet(t, 4, 3, 4)
	steps, err := nw.RunUntil(func() bool { return procs[0].received >= 4 }, 100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if procs[0].received < 4 {
		t.Errorf("condition not met after %d steps", steps)
	}
	if nw.Quiescent() {
		t.Error("expected pending messages when stopping early")
	}
}

func TestNetworkCrashDropsTraffic(t *testing.T) {
	nw, procs := newFloodNet(t, 4, 3, 5)
	nw.Crash(2)
	if _, err := nw.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if procs[1].received != 0 {
		t.Errorf("crashed process received %d messages", procs[1].received)
	}
	if nw.Stats().Dropped == 0 {
		t.Error("expected dropped messages")
	}
}

func TestNetworkRegisterErrors(t *testing.T) {
	nw := NewNetwork(3, 0, 1)
	if err := nw.Register(&flooder{id: 0}); err == nil {
		t.Error("id 0 accepted")
	}
	if err := nw.Register(&flooder{id: 4}); err == nil {
		t.Error("id out of range accepted")
	}
	if err := nw.Register(&flooder{id: 1}); err != nil {
		t.Errorf("valid register failed: %v", err)
	}
	if err := nw.Register(&flooder{id: 1}); err == nil {
		t.Error("duplicate register accepted")
	}
	if _, err := nw.Run(10); err == nil {
		t.Error("run with missing processes should fail")
	}
}

func TestNetworkStatsAccounting(t *testing.T) {
	nw, _ := newFloodNet(t, 4, 1, 6)
	if _, err := nw.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := nw.Stats()
	if st.Sent != st.Delivered+st.Dropped {
		t.Errorf("sent %d != delivered %d + dropped %d", st.Sent, st.Delivered, st.Dropped)
	}
	if st.SentByKind["test/ping"] != st.Sent {
		t.Errorf("by-kind count %d != total %d", st.SentByKind["test/ping"], st.Sent)
	}
	if st.BytesByKind["test/ping"] != 8*st.Sent {
		t.Errorf("bytes = %d, want %d", st.BytesByKind["test/ping"], 8*st.Sent)
	}
	if st.TotalBytes() != 8*st.Sent {
		t.Errorf("TotalBytes = %d, want %d", st.TotalBytes(), 8*st.Sent)
	}
}

func TestSchedulersDeliverEverything(t *testing.T) {
	tests := []struct {
		name string
		make func() Scheduler
	}{
		{name: "random", make: func() Scheduler { return NewRandomScheduler(7) }},
		{name: "fifo", make: func() Scheduler { return NewFIFOScheduler() }},
		{name: "delay-uniform", make: func() Scheduler {
			return NewDelayScheduler(7, UniformDelay{Lo: 1, Hi: 50})
		}},
		{name: "delay-exp", make: func() Scheduler {
			return NewDelayScheduler(7, ExpDelay{Mean: 20, Cap: 200})
		}},
		{name: "scripted-nohold", make: func() Scheduler {
			return NewScriptedScheduler(NewRandomScheduler(7))
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tt.make()
			seen := make(map[uint64]bool)
			for i := uint64(1); i <= 100; i++ {
				s.Enqueue(Message{Seq: i, Payload: pingPayload{}}, 0)
			}
			if s.Len() != 100 {
				t.Fatalf("len = %d, want 100", s.Len())
			}
			now := int64(0)
			for {
				m, at, ok := s.Next(now)
				if !ok {
					break
				}
				if at > now {
					now = at
				}
				if seen[m.Seq] {
					t.Fatalf("message %d delivered twice", m.Seq)
				}
				seen[m.Seq] = true
			}
			if len(seen) != 100 {
				t.Errorf("delivered %d of 100", len(seen))
			}
		})
	}
}

func TestFIFOSchedulerPreservesOrder(t *testing.T) {
	s := NewFIFOScheduler()
	for i := uint64(1); i <= 10; i++ {
		s.Enqueue(Message{Seq: i, Payload: pingPayload{}}, 0)
	}
	for i := uint64(1); i <= 10; i++ {
		m, _, ok := s.Next(0)
		if !ok || m.Seq != i {
			t.Fatalf("pop %d: got seq %d ok=%v", i, m.Seq, ok)
		}
	}
}

func TestDelaySchedulerOrdersByVirtualTime(t *testing.T) {
	s := NewDelayScheduler(1, UniformDelay{Lo: 1, Hi: 1000})
	for i := uint64(1); i <= 200; i++ {
		s.Enqueue(Message{Seq: i, Payload: pingPayload{}}, 0)
	}
	last := int64(-1)
	for {
		_, at, ok := s.Next(0)
		if !ok {
			break
		}
		if at < last {
			t.Fatalf("virtual time went backwards: %d after %d", at, last)
		}
		last = at
	}
}

func TestScriptedSchedulerHoldAndRelease(t *testing.T) {
	s := NewScriptedScheduler(NewFIFOScheduler())
	s.SetHold(func(m Message) bool { return m.To == 4 })
	for i := uint64(1); i <= 6; i++ {
		to := ProcID(i%2 + 3) // alternate To=4, To=3
		s.Enqueue(Message{Seq: i, To: to, Payload: pingPayload{}}, 0)
	}
	var delivered []ProcID
	for {
		m, _, ok := s.Next(0)
		if !ok {
			break
		}
		delivered = append(delivered, m.To)
	}
	for _, to := range delivered {
		if to == 4 {
			t.Fatal("held message delivered")
		}
	}
	if s.HeldCount() != 3 {
		t.Fatalf("held = %d, want 3", s.HeldCount())
	}
	s.SetHold(nil)
	count := 0
	for {
		m, _, ok := s.Next(0)
		if !ok {
			break
		}
		if m.To != 4 {
			t.Fatal("unexpected message after release")
		}
		count++
	}
	if count != 3 {
		t.Errorf("released %d, want 3", count)
	}
}
