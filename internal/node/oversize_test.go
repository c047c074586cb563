package node

// White-box regression tests for the oversized-payload hole: a lone
// payload bigger than maxFrameBytes used to fall through every
// send path unchecked (the frame splitter routes 1-payload chunks to
// sendOne, which had no size bound), producing exactly the poison frame
// the TCP transport's reconnecting dialer would retransmit forever.

import (
	"testing"
	"time"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/transport"
)

// testSendPair builds node 1 on a 2-endpoint mesh and returns its send
// context plus endpoint 2's receive side.
func testSendPair(t *testing.T) (*runCtx, transport.Transport) {
	t.Helper()
	mesh := transport.NewMesh(2)
	ep1, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := mesh.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ep2.Start(); err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{ID: 1, N: 2, Seed: 1, Codec: core.NewCodec(), Service: stubDriver{}}, ep1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep1.Close(); ep2.Close() })
	return nd.ctx, ep2
}

// bigMsg is a payload whose standalone frame exceeds the cap — the
// shape a Byzantine peer can bait the stack into minting.
func bigMsg() rb.Msg {
	return rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoRB}, Value: make([]byte, maxFrameBytes)}
}

func expectFrame(t *testing.T, tr transport.Transport) transport.Frame {
	t.Helper()
	select {
	case f := <-tr.Recv():
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("expected a frame, got none")
		return transport.Frame{}
	}
}

func expectNoFrame(t *testing.T, tr transport.Transport) {
	t.Helper()
	select {
	case f := <-tr.Recv():
		t.Fatalf("unexpected %d-byte frame crossed the transport", len(f.Data))
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSendOneDropsOversizedPayload pins the single-frame path: the
// oversized payload is dropped with an error and a counter, and the
// link keeps working for sane traffic.
func TestSendOneDropsOversizedPayload(t *testing.T) {
	ctx, ep2 := testSendPair(t)
	nd := ctx.n

	ctx.sendOne(2, bigMsg())
	expectNoFrame(t, ep2)
	st := nd.Stats()
	if st.OversizedDropped != 1 {
		t.Fatalf("OversizedDropped = %d, want 1", st.OversizedDropped)
	}
	if st.SentFrames != 0 || st.Sent != 0 {
		t.Fatalf("oversized payload was counted as sent: frames=%d msgs=%d", st.SentFrames, st.Sent)
	}
	if len(nd.Errs()) != 1 {
		t.Fatalf("want 1 recorded error, got %v", nd.Errs())
	}

	// The link is not wedged: a normal payload still crosses.
	ctx.sendOne(2, rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoRB}, Value: []byte("ok")})
	f := expectFrame(t, ep2)
	if len(f.Data) > 1024 {
		t.Fatalf("follow-up frame unexpectedly large: %d bytes", len(f.Data))
	}
	if st := nd.Stats(); st.SentFrames != 1 {
		t.Fatalf("SentFrames = %d, want 1", st.SentFrames)
	}
}

// TestFlushOutboxDropsOversizedSingleton pins the multi-payload path: the
// splitter isolates the oversized payload into a 1-payload chunk, which
// must be dropped, while the rest of the burst still ships.
func TestFlushOutboxDropsOversizedSingleton(t *testing.T) {
	ctx, ep2 := testSendPair(t)
	nd := ctx.n

	ctx.Send(2, bigMsg())
	ctx.Send(2, rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoRB}, Value: []byte("survives")})
	ctx.flushOutbox()

	f := expectFrame(t, ep2)
	if max := maxFrameBytes; len(f.Data) > max {
		t.Fatalf("flushed frame is %d bytes, over the %d cap", len(f.Data), max)
	}
	expectNoFrame(t, ep2)
	st := nd.Stats()
	if st.OversizedDropped != 1 {
		t.Fatalf("OversizedDropped = %d, want 1", st.OversizedDropped)
	}
	if st.SentFrames != 1 || st.Sent != 1 {
		t.Fatalf("want exactly the small payload sent: frames=%d msgs=%d", st.SentFrames, st.Sent)
	}
}

// TestFrameLengthContract pins a multi-payload frame's length: a Pack of
// k ≥ 2 scope envelopes in one group, 1 + uvarint(groups) +
// Σ(1 + uvarint(count) + Σ(uvarint(len) + len)) bytes — the kind code 14
// in the place the retired batch frame had its magic byte. Ship counts
// exactly those bytes.
func TestFrameLengthContract(t *testing.T) {
	ctx, ep2 := testSendPair(t)
	for _, k := range []int{2, 3, 200} {
		before := ctx.n.Stats()
		want := 1 + proto.UvarintSize(1) + 1 + proto.UvarintSize(uint64(k))
		for i := 0; i < k; i++ {
			p := proto.Scoped{Scope: uint64(i) << 10, Inner: rb.Msg{Origin: 1, Tag: proto.Tag{Proto: proto.ProtoRB, A: uint32(i)}, Value: make([]byte, i)}}
			want += proto.UvarintSize(uint64(p.Size())) + p.Size()
			ctx.Send(2, p)
		}
		ctx.flushOutbox()
		f := expectFrame(t, ep2)
		if len(f.Data) != want {
			t.Errorf("k=%d: frame is %d bytes, want %d", k, len(f.Data), want)
		}
		if got := ctx.n.Stats().SentFrameBytes - before.SentFrameBytes; got != int64(want) {
			t.Errorf("k=%d: %d frame bytes counted, want %d", k, got, want)
		}
	}
}
