package sim

import "testing"

// TestStepAllocatesNoContext pins that a delivery boxes no context: each
// process's Context is boxed once, when the network is built, not once
// per Step.
func TestStepAllocatesNoContext(t *testing.T) {
	const queued = 512
	nw := NewNetwork(2, 0, 1, WithScheduler(NewFIFOScheduler()))
	for p := ProcID(1); p <= 2; p++ {
		if err := nw.Register(&flooder{id: p}); err != nil {
			t.Fatal(err)
		}
	}
	var ping Payload = pingPayload{}
	if err := nw.Inject(1, func(ctx Context) {
		for i := 0; i < queued; i++ {
			ctx.Send(2, ping)
		}
	}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(queued/2, func() {
		if ok, err := nw.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Step: %v allocs, want 0", allocs)
	}
}
