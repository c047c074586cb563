package transport_test

import (
	"bytes"
	"testing"
	"time"

	"svssba/internal/sim"
	"svssba/internal/transport"
)

// TestSendBorrowsBuffer pins Send's contract on every backend: the
// caller may overwrite its buffer the moment Send returns, and the
// receiver still gets the bytes as they were at the call. The node
// runtime relies on it by encoding every frame into one reused buffer.
func TestSendBorrowsBuffer(t *testing.T) {
	for _, link := range []struct {
		name string
		// pair returns a started sender and the receiver it sends to.
		pair func(t *testing.T) (from, to transport.Transport)
	}{
		{"mesh", meshPair},
		{"tcp", func(t *testing.T) (transport.Transport, transport.Transport) {
			a := transport.NewTCP(1, "127.0.0.1:0", nil)
			b := transport.NewTCP(2, "127.0.0.1:0", nil)
			startAll(t, a, b)
			a.SetPeers(map[sim.ProcID]string{2: b.Addr()})
			return a, b
		}},
		{"tcp-loopback", func(t *testing.T) (transport.Transport, transport.Transport) {
			a := transport.NewTCP(1, "127.0.0.1:0", nil)
			startAll(t, a)
			return a, a
		}},
		{"faultlink-delay", func(t *testing.T) (transport.Transport, transport.Transport) {
			a, b := meshPair(t)
			return transport.WithFaults(a, transport.FaultConfig{Seed: 1, MaxDelay: 20 * time.Millisecond}), b
		}},
	} {
		t.Run(link.name, func(t *testing.T) {
			from, to := link.pair(t)
			const frames = 8
			buf := make([]byte, 64)
			for i := 0; i < frames; i++ {
				for j := range buf {
					buf[j] = byte(i)
				}
				if err := from.Send(to.Self(), buf); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = 0xEE // the caller reuses its buffer at once
				}
			}
			seen := make([]bool, frames)
			for i := 0; i < frames; i++ {
				f := recvFrame(t, to)
				if f.From != from.Self() {
					t.Fatalf("frame from %d, want %d", f.From, from.Self())
				}
				if len(f.Data) != len(buf) || f.Data[0] >= frames || !bytes.Equal(f.Data, bytes.Repeat(f.Data[:1], len(buf))) {
					t.Fatalf("frame arrived as %x, not as sent", f.Data)
				}
				seen[f.Data[0]] = true
			}
			for i, ok := range seen {
				if !ok {
					t.Errorf("frame %d never arrived intact", i)
				}
			}
		})
	}
}

// meshPair returns started endpoints 1 and 2 of a two-process mesh.
func meshPair(t *testing.T) (transport.Transport, transport.Transport) {
	mesh := transport.NewMesh(2)
	a, err := mesh.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mesh.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	startAll(t, a, b)
	return a, b
}

// startAll starts trs and closes them when the test ends.
func startAll(t *testing.T, trs ...transport.Transport) {
	for _, tr := range trs {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
	}
}
