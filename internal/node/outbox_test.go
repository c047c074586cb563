package node

import (
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TestOutboxBurstAllocs pins what a steady-state burst of three scoped
// payloads to one peer allocates on Mesh: the one copy the transport
// keeps of the frame, and nothing in the outbox. A flush keeps each
// destination's payload slice for the next burst, so the parking does
// not regrow it.
func TestOutboxBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	ctx, ep2 := testSendPair(t)
	ps := make([]sim.Payload, 3)
	for i := range ps {
		ps[i] = proto.Scoped{Scope: uint64(i) << 8, Inner: rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoRB, A: uint32(i)}, Value: []byte("value")}}
	}
	var frames []transport.Frame
	burst := func() {
		for _, p := range ps {
			ctx.Send(2, p)
		}
		ctx.flushOutbox()
		var ok bool
		if frames, ok = ep2.Take(frames); !ok || len(frames) != 1 {
			t.Fatalf("took %d frames (open %v), want 1", len(frames), ok)
		}
		clear(frames)
	}
	burst() // warm the encode buffer, the kind table and the inbox queue
	if got := testing.AllocsPerRun(100, burst); got != 1 {
		t.Errorf("a three-payload burst allocates %v times, want 1 (the transport's frame copy)", got)
	}
}
