package core

import (
	"testing"

	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/testutil"
)

// slabRevealAllocs is the allocation budget of one accepted two-slot
// reveal slab at n = 4 for a fresh MW-SVSS instance, through core's
// accept path. The DMM observer and the MW handler both read the slab in
// place, so it costs no slot list and no rows. The handler creates the
// reconstruct state (1) and grows its three per-slot collections for
// each named slot (6); its pending-reveal list grows to the slab's 8
// shares (4). Decoding the slab into slots and rows would cost 2 per
// decode.
const slabRevealAllocs = 11

// TestSlabRevealInstanceAllocs pins slabRevealAllocs exactly over a
// window of instances, each taking one two-slot reveal from process 2.
// Engine and DMM reset after each window, as a retiring stack's do.
func TestSlabRevealInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const window = 256
	ctx := testutil.NewCtx(1, 4, 1)
	nd := NewNode(1, nil)
	eng := AttachMWSVSS(nd, mwsvss.Callbacks{})
	rows := make([]field.Element, 2*4)
	for i := range rows {
		rows[i] = field.New(uint64(i + 1))
	}
	slab := mwsvss.EncodeSlab([]int{0, 2}, rows)
	accepts := make([]rb.Accept, window)
	for w := range accepts {
		accepts[w] = rb.Accept{Origin: 2, Value: slab, Tag: proto.Tag{
			Proto:   proto.ProtoMW,
			Session: proto.SessionID{Dealer: 3, Kind: proto.KindMW, Round: uint64(w)},
			MW:      proto.MWKey{Dealer: 3, Moderator: 4},
			Step:    mwsvss.StepRValSlab,
		}}
	}
	run := func() {
		for _, a := range accepts {
			nd.onRBAccept(ctx, a)
		}
		eng.Reset()
		nd.dmmSt.Reset()
	}
	run() // warm the instance slab and the DMM tables
	allocs := testing.AllocsPerRun(4, run)
	if want := float64(slabRevealAllocs * window); allocs != want {
		t.Errorf("%v allocs per window of %d slab reveals, want exactly %v (%d each)",
			allocs, window, want, slabRevealAllocs)
	}
}
