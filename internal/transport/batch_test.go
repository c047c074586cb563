package transport_test

import (
	"reflect"
	"testing"
	"time"

	"svssba/internal/aba"
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/transport"
)

// batchTestFrame builds one multi-payload Pack frame with the full
// protocol codec.
func batchTestFrame(t *testing.T) (*proto.Codec, []sim.Payload, []byte) {
	t.Helper()
	c := core.NewCodec()
	tag := proto.Tag{Proto: proto.ProtoMW, Session: proto.SessionID{Dealer: 1, Kind: proto.KindCoin, Round: 3}}
	ps := []sim.Payload{
		rb.Msg{Origin: 1, Tag: tag, Value: []byte("echo-a")},
		rb.Msg{Origin: 2, Tag: tag, Value: []byte("echo-b")},
		aba.Vote{Step: 1, Round: 2, Value: 1},
	}
	enc, err := c.Encode(proto.Pack{Items: ps})
	if err != nil {
		t.Fatal(err)
	}
	return c, ps, enc
}

// recvFrame waits for one frame on tr.
func recvFrame(t *testing.T, tr transport.Transport) transport.Frame {
	t.Helper()
	select {
	case f, ok := <-tr.Recv():
		if !ok {
			t.Fatal("transport closed before frame arrived")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
	}
	panic("unreachable")
}

// assertBatchArrives checks a Pack frame crosses a transport link
// intact: decodable as a Pack, payload-for-payload equal.
func assertBatchArrives(t *testing.T, c *proto.Codec, want []sim.Payload, f transport.Frame) {
	t.Helper()
	if f.From != 1 {
		t.Fatalf("frame from %d, want 1", f.From)
	}
	p, err := c.Decode(f.Data)
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := p.(proto.Pack)
	if !ok {
		t.Fatalf("frame decoded as %T, want a Pack", p)
	}
	if got := pk.Items; !reflect.DeepEqual(want, got) {
		t.Fatalf("batch changed in transit:\n sent %#v\n got  %#v", want, got)
	}
}

// TestBatchFrameOverMesh sends one multi-payload Pack frame across the
// in-process channel mesh.
func TestBatchFrameOverMesh(t *testing.T) {
	c, ps, enc := batchTestFrame(t)
	mesh := transport.NewMesh(2)
	a, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mesh.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []transport.Transport{a, b} {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
	}
	if err := a.Send(2, enc); err != nil {
		t.Fatal(err)
	}
	assertBatchArrives(t, c, ps, recvFrame(t, b))
}

// TestBatchFrameOverTCP sends the same Pack frame across real
// localhost sockets: the length-prefixed TCP framing must carry
// multi-payload frames opaquely.
func TestBatchFrameOverTCP(t *testing.T) {
	c, ps, enc := batchTestFrame(t)
	a := transport.NewTCP(1, "127.0.0.1:0", nil)
	b := transport.NewTCP(2, "127.0.0.1:0", nil)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[sim.ProcID]string{2: b.Addr()})
	if err := a.Send(2, enc); err != nil {
		t.Fatal(err)
	}
	assertBatchArrives(t, c, ps, recvFrame(t, b))
}
