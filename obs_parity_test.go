package svssba

import (
	"testing"

	"svssba/internal/core"
	"svssba/internal/obs"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// simRunResult captures everything the simulator determines about a run:
// if any two of these differ between an instrumented and a plain run,
// instrumentation perturbed the schedule.
type simRunResult struct {
	decisions   map[int]int
	steps       int
	virtualTime int64
	messages    int64
	bytes       int64
}

// runADHSim executes one deterministic ADH agreement over the pure
// simulator, mirroring Run's ProtocolADH arm. attach, when non-nil, is
// called per stack before the network starts so the caller can install
// trace hooks.
func runADHSim(t *testing.T, n, tf int, seed int64, attach func(pid int, st *core.Stack)) simRunResult {
	t.Helper()
	nw := sim.NewNetwork(n, tf, seed)
	decisions := make(map[int]int)
	for i := 1; i <= n; i++ {
		pid := i
		st := core.NewStack(sim.ProcID(i), nil)
		st.OnDecide(func(_ sim.Context, v int) { decisions[pid] = v })
		input := i % 2
		st.Node.AddInit(func(ctx sim.Context) { _ = st.ABA.Propose(ctx, input) })
		if attach != nil {
			attach(pid, st)
		}
		if err := nw.Register(st.Node); err != nil {
			t.Fatal(err)
		}
	}
	done := func() bool { return len(decisions) == n }
	steps, err := nw.RunUntil(done, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	return simRunResult{
		decisions:   decisions,
		steps:       steps,
		virtualTime: nw.Now(),
		messages:    st.Sent,
		bytes:       st.TotalBytes(),
	}
}

// TestObsHooksPreserveSchedule is the shape-preservation contract for the
// observability layer: a run with every trace hook installed (feeding a
// registry and a tracer) must be byte-for-byte the same execution as a
// run with no hooks — identical decisions, delivery count, virtual
// clock, and traffic totals.
func TestObsHooksPreserveSchedule(t *testing.T) {
	const n, tf = 4, 1
	for _, seed := range []int64{1, 3, 17} {
		plain := runADHSim(t, n, tf, seed, nil)

		reg := obs.NewRegistry()
		accepts := reg.Counter("rb_accepts")
		flips := reg.Counter("coin_flips")
		decides := reg.Counter("decisions")
		tracers := make([]*obs.Tracer, n+1)
		traced := runADHSim(t, n, tf, seed, func(pid int, st *core.Stack) {
			tr := obs.NewTracer(pid, 1024)
			tracers[pid] = tr
			st.SetTraceHooks(&core.TraceHooks{
				RBAccept: func(origin sim.ProcID, tag proto.Tag, size int) {
					accepts.Inc()
					tr.Record(obs.KindRBAccept, 0, int(origin), uint64(tag.Proto), uint64(tag.Step), uint64(size))
				},
				MWShare: func(id proto.MWID) {
					tr.Record(obs.KindMWShare, 0, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Session.Kind), 0)
				},
				MWRecon: func(id proto.MWID) {
					tr.Record(obs.KindMWRecon, 0, int(id.Key.Dealer), uint64(id.Key.Moderator), uint64(id.Session.Kind), 0)
				},
				Coin: func(round uint64, bit int) {
					flips.Inc()
					tr.Record(obs.KindCoin, 0, 0, round, uint64(bit), 0)
				},
				ABARound: func(round uint64) {
					tr.Record(obs.KindABARound, 0, 0, round, 0, 0)
				},
				Decide: func(v int) {
					decides.Inc()
					tr.Record(obs.KindDecide, 0, 0, uint64(v), 0, 0)
				},
			})
		})

		if traced.steps != plain.steps || traced.virtualTime != plain.virtualTime {
			t.Fatalf("seed %d: schedule diverged: steps %d vs %d, vtime %d vs %d",
				seed, traced.steps, plain.steps, traced.virtualTime, plain.virtualTime)
		}
		if traced.messages != plain.messages || traced.bytes != plain.bytes {
			t.Fatalf("seed %d: traffic diverged: msgs %d vs %d, bytes %d vs %d",
				seed, traced.messages, plain.messages, traced.bytes, plain.bytes)
		}
		for pid, v := range plain.decisions {
			if tv, ok := traced.decisions[pid]; !ok || tv != v {
				t.Fatalf("seed %d: node %d decided %d (traced) vs %d (plain)", seed, pid, tv, v)
			}
		}

		// The instrumented run must actually have observed the protocol.
		if decides.Value() != int64(n) {
			t.Fatalf("seed %d: decide counter = %d, want %d", seed, decides.Value(), n)
		}
		if accepts.Value() == 0 || flips.Value() == 0 {
			t.Fatalf("seed %d: accepts=%d flips=%d, want both nonzero", seed, accepts.Value(), flips.Value())
		}
		for pid := 1; pid <= n; pid++ {
			tr := tracers[pid]
			if tr.Total() == 0 {
				t.Fatalf("seed %d: node %d tracer recorded nothing", seed, pid)
			}
			var sawDecide bool
			for _, e := range tr.Events() {
				if e.Kind == obs.KindDecide {
					sawDecide = true
				}
			}
			if !sawDecide {
				t.Fatalf("seed %d: node %d trace has no decide event", seed, pid)
			}
		}
	}
}
