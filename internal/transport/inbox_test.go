package transport

import (
	"sync"
	"testing"
	"time"

	"svssba/internal/sim"
)

func startedInbox(t testing.TB) *inbox {
	t.Helper()
	ib := newInbox()
	if !ib.start() {
		t.Fatal("fresh inbox refused to start")
	}
	return ib
}

// fired reports whether Ready holds a wakeup (or is closed).
func fired(ib *inbox) bool {
	select {
	case <-ib.Ready():
		return true
	default:
		return false
	}
}

// seqFrame encodes producer p's i-th frame.
func seqFrame(p, i int) Frame {
	return Frame{From: sim.ProcID(p), Data: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}
}

func seqOf(f Frame) int { return int(f.Data[0]) | int(f.Data[1])<<8 | int(f.Data[2])<<16 }

// checkFIFO consumes frames, failing on any producer's frame out of
// order; next[p] is the sequence number expected from producer p.
func checkFIFO(t *testing.T, next map[sim.ProcID]int, frames []Frame) {
	t.Helper()
	for _, f := range frames {
		if got := seqOf(f); got != next[f.From] {
			t.Fatalf("producer %d: frame %d arrived, want %d", f.From, got, next[f.From])
		}
		next[f.From]++
	}
}

func TestInboxPerProducerFIFO(t *testing.T) {
	const producers, per = 4, 2000
	ib := startedInbox(t)
	var wg sync.WaitGroup
	for p := 1; p <= producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ib.push(seqFrame(p, i))
			}
		}()
	}
	next := make(map[sim.ProcID]int)
	var frames []Frame
	for got := 0; got < producers*per; {
		select {
		case <-ib.Ready():
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d of %d frames", got, producers*per)
		}
		frames, _ = ib.Take(frames)
		checkFIFO(t, next, frames)
		got += len(frames)
	}
	wg.Wait()
}

// TestMeshSendNeverBlocks pushes 100k frames at an endpoint nobody
// reads: every Send returns, and every frame waits in the inbox.
func TestMeshSendNeverBlocks(t *testing.T) {
	const frames = 100_000
	m := NewMesh(2)
	a, _ := m.Endpoint(1)
	b, _ := m.Endpoint(2)
	for _, ep := range []Transport{a, b} {
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		data := []byte{1}
		for i := 0; i < frames; i++ {
			a.Send(2, data)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked on an endpoint with no consumer")
	}
	if got, _ := b.Take(nil); len(got) != frames {
		t.Fatalf("inbox holds %d frames, want %d", len(got), frames)
	}
}

func TestInboxDropsOutsideStartClose(t *testing.T) {
	ib := newInbox()
	ib.push(seqFrame(1, 0))
	if fired(ib) {
		t.Fatal("push before start fired Ready")
	}
	if got, ok := ib.Take(nil); len(got) != 0 || !ok {
		t.Fatalf("before start: Take = %d frames, ok=%v; want 0, true", len(got), ok)
	}
	ib.start()
	ib.close()
	ib.close()
	ib.push(seqFrame(1, 1))
	if got, ok := ib.Take(nil); len(got) != 0 || ok {
		t.Fatalf("after close: Take = %d frames, ok=%v; want 0, false", len(got), ok)
	}
	if ib.start() {
		t.Fatal("closed inbox restarted")
	}

	// The same contract through both backends' Send.
	m := NewMesh(2)
	a, _ := m.Endpoint(1)
	b, _ := m.Endpoint(2)
	a.Send(2, []byte{1}) // b not started
	b.Start()
	b.Close()
	a.Send(2, []byte{2}) // b closed
	if got, ok := b.Take(nil); len(got) != 0 || ok {
		t.Fatalf("mesh: closed endpoint Take = %d frames, ok=%v", len(got), ok)
	}
	tcp := NewTCP(1, "127.0.0.1:0", nil)
	tcp.Send(1, []byte{1}) // self-send before Start
	if err := tcp.Start(); err != nil {
		t.Fatal(err)
	}
	if fired(tcp.inbox) {
		t.Fatal("tcp: self-send before Start was queued")
	}
	tcp.Close()
	tcp.Send(1, []byte{2})
	if got, ok := tcp.Take(nil); len(got) != 0 || ok {
		t.Fatalf("tcp: closed endpoint Take = %d frames, ok=%v", len(got), ok)
	}
}

func TestInboxReadyFiresPerTransition(t *testing.T) {
	ib := startedInbox(t)
	if fired(ib) {
		t.Fatal("empty inbox fired Ready")
	}
	var frames []Frame
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			ib.push(seqFrame(1, i))
		}
		if !fired(ib) {
			t.Fatalf("round %d: empty→non-empty push did not fire Ready", round)
		}
		if fired(ib) {
			t.Fatalf("round %d: pushes onto a non-empty inbox fired Ready again", round)
		}
		frames, _ = ib.Take(frames)
		if len(frames) != 5 {
			t.Fatalf("round %d: took %d frames, want 5", round, len(frames))
		}
	}
	ib.close()
	for i := 0; i < 3; i++ {
		if !fired(ib) {
			t.Fatal("Ready does not fire after close")
		}
	}
}

func TestInboxTakeReportsClosedAfterDrain(t *testing.T) {
	ib := startedInbox(t)
	for i := 0; i < 3; i++ {
		ib.push(seqFrame(1, i))
	}
	ib.close()
	frames, ok := ib.Take(nil)
	if len(frames) != 3 || !ok {
		t.Fatalf("first Take after close = %d frames, ok=%v; want 3, true", len(frames), ok)
	}
	if frames, ok = ib.Take(frames); len(frames) != 0 || ok {
		t.Fatalf("Take of a drained closed inbox = %d frames, ok=%v; want 0, false", len(frames), ok)
	}
}

// TestInboxStressConcurrentClose races 8 producers, one consumer and a
// Close issued by a producer midway: nothing panics, per-producer order
// holds for whatever got in, and the consumer sees the close.
func TestInboxStressConcurrentClose(t *testing.T) {
	const producers, per = 8, 5000
	ib := startedInbox(t)
	var wg sync.WaitGroup
	for p := 1; p <= producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if p == 1 && i == per/2 {
					ib.close()
				}
				ib.push(seqFrame(p, i))
			}
		}()
	}
	consumed := make(chan struct{})
	total := 0
	next := make(map[sim.ProcID]int)
	go func() {
		defer close(consumed)
		var frames []Frame
		for {
			<-ib.Ready()
			var ok bool
			if frames, ok = ib.Take(frames); !ok {
				return
			}
			for _, f := range frames {
				if got := seqOf(f); got != next[f.From] {
					t.Errorf("producer %d: frame %d arrived, want %d", f.From, got, next[f.From])
					return
				}
				next[f.From]++
			}
			total += len(frames)
		}
	}()
	wg.Wait()
	select {
	case <-consumed:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not observe the close")
	}
	if next[1] > per/2 {
		t.Fatalf("producer 1 closed the inbox after %d frames, yet %d got in", per/2, next[1])
	}
	if total > producers*per {
		t.Fatalf("consumed %d frames, only %d were pushed", total, producers*per)
	}
}

// TestInboxPushTakeAllocatesNothing pins the warm receive path at zero
// allocations: the queue and the consumer's batch trade arrays.
func TestInboxPushTakeAllocatesNothing(t *testing.T) {
	ib := startedInbox(t)
	f := seqFrame(1, 0)
	var frames []Frame
	round := func() {
		for i := 0; i < 16; i++ {
			ib.push(f)
		}
		frames, _ = ib.Take(frames)
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm push+Take allocates %.1f times per round", allocs)
	}
}

// TestInboxReleasesDeliveredFrames checks that a drained inbox pins no
// frame buffers: the batch handed back to Take is cleared before it
// becomes the queue, and a burst-sized array is not kept at all.
func TestInboxReleasesDeliveredFrames(t *testing.T) {
	ib := startedInbox(t)
	var frames []Frame
	for _, burst := range []int{8, 4 * maxSpareFrames, 3} {
		for i := 0; i < burst; i++ {
			ib.push(Frame{From: 1, Data: make([]byte, 1<<10)})
		}
		frames, _ = ib.Take(frames)
		if len(frames) != burst {
			t.Fatalf("took %d frames, want %d", len(frames), burst)
		}
		frames, _ = ib.Take(frames) // hand the batch back, frames not zeroed
		if cap(ib.q) > maxSpareFrames {
			t.Fatalf("after a %d-frame burst the inbox keeps a %d-frame array", burst, cap(ib.q))
		}
		for i, f := range ib.q[:cap(ib.q)] {
			if f.Data != nil {
				t.Fatalf("after a %d-frame burst, queue slot %d still references a frame buffer", burst, i)
			}
		}
	}
}

func BenchmarkInboxPushTake(b *testing.B) {
	ib := startedInbox(b)
	f := seqFrame(1, 0)
	var frames []Frame
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < 16; i++ {
			ib.push(f)
		}
		frames, _ = ib.Take(frames)
	}
}

// BenchmarkMeshPingPong bounces one 16-byte frame between two Mesh
// endpoints, each side waiting on Ready and taking its inbox: the
// in-process round trip the node runtime pays per request/response.
func BenchmarkMeshPingPong(b *testing.B) {
	m := NewMesh(2)
	a, _ := m.Endpoint(1)
	c, _ := m.Endpoint(2)
	a.Start()
	c.Start()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		var frames []Frame
		for range c.Ready() {
			frames, _ = c.Take(frames)
			for i := range frames {
				c.Send(1, frames[i].Data)
				frames[i] = Frame{}
			}
		}
	}()
	msg := make([]byte, 16)
	var frames []Frame
	b.ReportAllocs()
	for b.Loop() {
		a.Send(2, msg)
		<-a.Ready()
		frames, _ = a.Take(frames)
	}
	c.Close()
	<-echoDone
	a.Close()
}
