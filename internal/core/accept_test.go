package core

import (
	"bytes"
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
)

// bundleAccept returns the RB accept of a k-item bundle from origin 2
// whose items route to the ProtoRB namespace.
func bundleAccept(seq uint32, k int, fill byte) rb.Accept {
	tags := make([]proto.Tag, k)
	vals := make([][]byte, k)
	for i := range tags {
		tags[i] = proto.Tag{Proto: proto.ProtoRB, Step: 1, A: uint32(i)}
		vals[i] = bytes.Repeat([]byte{fill}, 8)
	}
	return rb.Accept{Origin: 2, Tag: proto.Tag{Proto: proto.ProtoBundle, A: seq}, Value: proto.EncodeBundle(tags, vals)}
}

// TestBundleAcceptAllocatesNothing pins the warm bundle accept at zero
// allocations: the items decode into the node's reused buffer.
func TestBundleAcceptAllocatesNothing(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := NewNode(1, nil)
	delivered := 0
	nd.HandleBroadcast(proto.ProtoRB, func(sim.Context, sim.ProcID, proto.Tag, []byte) { delivered++ })
	a := bundleAccept(0, 16, 'x')
	nd.onRBAccept(ctx, a) // warm: the buffer grows once
	if allocs := testing.AllocsPerRun(100, func() { nd.onRBAccept(ctx, a) }); allocs != 0 {
		t.Fatalf("bundle accept: %v allocs, want 0", allocs)
	}
	if delivered != 16*102 {
		t.Fatalf("delivered %d items, want %d", delivered, 16*102)
	}
}

// TestNestedBundleAcceptsDecodeApart: a bundle accepted from inside a
// handler of another bundle's item decodes into its own buffer, so the
// outer bundle's remaining items are still its own.
func TestNestedBundleAcceptsDecodeApart(t *testing.T) {
	ctx := testutil.NewCtx(1, 4, 1)
	nd := NewNode(1, nil)
	outer, inner := bundleAccept(0, 4, 'o'), bundleAccept(1, 6, 'i')
	var got []byte
	nested := false
	nd.HandleBroadcast(proto.ProtoRB, func(ctx sim.Context, _ sim.ProcID, _ proto.Tag, v []byte) {
		got = append(got, v[0])
		if !nested {
			nested = true
			nd.onRBAccept(ctx, inner)
		}
	})
	nd.onRBAccept(ctx, outer)
	if want := "oiiiiiiooo"; string(got) != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
}
