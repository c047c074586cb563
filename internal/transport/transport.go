// Package transport provides the real-network substrate for the node
// runtime: point-to-point delivery of opaque byte frames between the n
// processes of a cluster. It is the layer below internal/node — node
// encodes protocol payloads through internal/proto and hands the bytes
// to a Transport; which wire the bytes actually cross is a backend
// choice:
//
//   - Mesh (chan.go): an in-process fabric over channels with unbounded
//     per-endpoint inboxes. Zero syscalls, runs whole clusters inside one
//     test binary — the backend for RunLive and fast -race tests.
//   - TCP (tcp.go): length-prefixed framing over real sockets with a
//     listener per process and reconnecting, backlogged dialers — the
//     backend for cmd/node and cmd/cluster.
//
// Both backends satisfy the same asynchronous-link contract the
// simulator models: Send never blocks the caller, frames are delivered
// eventually while both endpoints are up, and per-link FIFO order is not
// guaranteed once faults (FaultLink) or reconnects are involved — the
// protocol stacks tolerate arbitrary reordering by design.
package transport

import "svssba/internal/sim"

// Frame is one received message: the claimed sender and the raw encoded
// payload. The transport owns Data after Send and until the receiver
// takes the frame; callers must not retain or mutate buffers they pass
// to Send.
//
// Inbound Data buffers are immutable: every backend hands the receiver
// a buffer it will never touch again (TCP allocates one per frame, Mesh
// transfers the sender's), so receivers may retain subslices of Data
// indefinitely — the contract behind the node runtime's zero-copy
// payload decode.
type Frame struct {
	From sim.ProcID
	Data []byte
}

// Transport connects one process to its peers.
//
// Implementations must make Send safe for concurrent use and must never
// block it on a slow peer (links are unbounded asynchronous channels).
// Send(self) loops back locally so the node runtime needs no special
// case for self-addressed traffic. Start and Close are idempotent.
type Transport interface {
	// Self returns the local process id.
	Self() sim.ProcID
	// Start brings the endpoint up (listening, pumping). Idempotent.
	Start() error
	// Send queues data for delivery to peer `to`. It never blocks on the
	// peer; after Close (or once the peer is gone) frames are silently
	// dropped, which models a crashed endpoint.
	Send(to sim.ProcID, data []byte) error
	// Recv returns the inbound frame stream. The channel is closed by
	// Close, after which no more frames arrive.
	Recv() <-chan Frame
	// Close tears the endpoint down and releases its resources. Idempotent.
	Close() error
}

// Borrower is an optional Transport capability: SendBorrowed ships data
// from a buffer the CALLER keeps — the transport copies (or fully
// consumes) it before returning, so the caller may truncate and refill
// the same buffer for its next frame. This is what lets the node
// runtime's outbox reuse one encode buffer across flushes instead of
// allocating a fresh frame per send.
//
// TCP implements it by copying into pooled buffers recycled after the
// socket write. Mesh deliberately does NOT: its Send hands the very
// slice to the receiving endpoint (which may alias it forever under
// zero-copy decode), so borrowing is impossible there and callers fall
// back to Send with an owned buffer.
type Borrower interface {
	SendBorrowed(to sim.ProcID, data []byte) error
}

// pump is an unbounded FIFO between producers (socket readers, local
// senders) and the single consumer of Recv: producers hand frames to in
// (guarded by stop so they never block on a dead pump), the pump buffers
// them, and the consumer drains out, so a slow consumer never blocks a
// sender: links are unbounded, as in the paper's asynchronous model.
type pump struct {
	in   chan Frame
	out  chan Frame
	stop chan struct{}
}

func newPump() *pump {
	return &pump{
		in:   make(chan Frame),
		out:  make(chan Frame),
		stop: make(chan struct{}),
	}
}

// run buffers frames until stop is closed, then closes out.
func (p *pump) run() {
	defer close(p.out)
	var queue []Frame
	for {
		var out chan Frame
		var head Frame
		if len(queue) > 0 {
			out = p.out
			head = queue[0]
		}
		select {
		case <-p.stop:
			return
		case f := <-p.in:
			queue = append(queue, f)
		case out <- head:
			queue = queue[1:]
		}
	}
}

// offer hands a frame to the pump, dropping it if the pump is stopped.
func (p *pump) offer(f Frame) {
	select {
	case p.in <- f:
	case <-p.stop:
	}
}
