// Package transport provides the real-network substrate for the node
// runtime: point-to-point delivery of opaque byte frames between the n
// processes of a cluster. It is the layer below internal/node — node
// encodes protocol payloads through internal/proto and hands the bytes
// to a Transport; which wire the bytes actually cross is a backend
// choice:
//
//   - Mesh (chan.go): an in-process fabric with unbounded per-endpoint
//     inboxes. Zero syscalls, runs whole clusters inside one test binary
//     — the backend for in-process cluster runs and fast -race tests.
//   - TCP (tcp.go): length-prefixed framing over real sockets with a
//     listener per process and reconnecting, backlogged dialers — the
//     backend for cmd/node and cmd/cluster.
//
// Both backends satisfy the same asynchronous-link contract the
// simulator models: Send never blocks the caller, frames are delivered
// eventually while both endpoints are up, and per-link FIFO order is not
// guaranteed once faults (FaultLink) or reconnects are involved — the
// protocol stacks tolerate arbitrary reordering by design.
//
// Both backends receive into the same inbox: a mutex-guarded frame queue
// that producers (Mesh senders, TCP socket readers, TCP self-sends)
// append to under one lock per frame, and that the endpoint's single
// consumer claims whole with Take after Ready fires. There is no
// forwarding goroutine between the two sides, so a consumer that wakes
// once sees every frame that arrived meanwhile — the node runtime's
// delivery burst.
package transport

import (
	"sync"

	"svssba/internal/sim"
)

// Frame is one received message: the claimed sender and the raw encoded
// payload. The transport owns Data after Send and until the receiver
// takes the frame; callers must not retain or mutate buffers they pass
// to Send.
//
// Inbound Data buffers are immutable: every backend hands the receiver
// a buffer it will never touch again (TCP allocates one per frame, Mesh
// transfers the sender's), so receivers may retain subslices of Data
// indefinitely — the contract behind the node runtime's zero-copy
// payload decode. A receiver zeroes each taken Frame once handled, so
// the batch it holds until its next Take pins no frame buffers.
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
//
// An endpoint has one consumer, which reads its inbox either through
// Ready and Take or through Recv, never both.
type Transport interface {
	// Self returns the local process id.
	Self() sim.ProcID
	// Start brings the endpoint up (listening, accepting frames).
	// Idempotent.
	Start() error
	// Send queues data for delivery to peer `to`. It never blocks on the
	// peer; before the peer's Start, after its Close (or once the peer is
	// gone) frames are silently dropped, which models a crashed endpoint.
	Send(to sim.ProcID, data []byte) error
	// Ready fires when the inbox goes from empty to non-empty, and for
	// good once the endpoint closes. Wait on it, then Take.
	Ready() <-chan struct{}
	// Take claims every frame queued since the previous Take, in arrival
	// order. buf is the caller's previous batch: Take clears
	// it and keeps its array as the next queue, so steady state allocates
	// nothing. ok is false once the endpoint is closed and drained.
	Take(buf []Frame) (frames []Frame, ok bool)
	// Recv is a channel view of the inbox for callers that take one frame
	// at a time (the transport probes in bench/probes.go). Its forwarding
	// goroutine starts on the first call; the channel is closed by Close,
	// after which no more frames arrive.
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

// maxSpareFrames bounds the queue array an inbox keeps for reuse after a
// Take. A larger one, left behind by a burst, is dropped so the queue
// regrows on demand instead of pinning the burst's peak for the rest of
// the run.
const maxSpareFrames = 64

// inbox is an endpoint's unbounded receive queue: producers never block
// on it (links are unbounded, as in the paper's asynchronous model) and
// the single consumer drains it in bursts. It implements the receive
// half of Transport for Mesh and TCP.
type inbox struct {
	mu      sync.Mutex
	q       []Frame
	started bool
	closed  bool
	ready   chan struct{} // capacity 1; closed by close
	done    chan struct{} // closed by close; stops the Recv adapter

	recvOnce sync.Once
	recv     chan Frame
}

func newInbox() *inbox {
	return &inbox{ready: make(chan struct{}, 1), done: make(chan struct{})}
}

// start opens the inbox to producers; false once it is closed.
func (ib *inbox) start() bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false
	}
	ib.started = true
	return true
}

// push queues f without blocking. Before start and after close the frame
// is dropped — what sending to a crashed process looks like on a real
// network.
func (ib *inbox) push(f Frame) {
	ib.mu.Lock()
	if ib.started && !ib.closed {
		ib.q = append(ib.q, f)
		if len(ib.q) == 1 {
			select {
			case ib.ready <- struct{}{}:
			default: // a wakeup is already pending
			}
		}
	}
	ib.mu.Unlock()
}

// close stops producers and fires Ready for good. Frames already queued
// stay takeable.
func (ib *inbox) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if !ib.closed {
		ib.closed = true
		close(ib.ready)
		close(ib.done)
	}
}

func (ib *inbox) Ready() <-chan struct{} { return ib.ready }

func (ib *inbox) Take(buf []Frame) ([]Frame, bool) {
	clear(buf)
	if cap(buf) > maxSpareFrames {
		buf = nil
	}
	ib.mu.Lock()
	frames := ib.q
	ib.q = buf[:0]
	closed := ib.closed
	ib.mu.Unlock()
	return frames, len(frames) > 0 || !closed
}

func (ib *inbox) Recv() <-chan Frame {
	ib.recvOnce.Do(func() {
		ib.recv = make(chan Frame)
		go ib.forward()
	})
	return ib.recv
}

// forward is the Recv adapter: it takes batches and hands their frames
// to recv one at a time until the inbox closes.
func (ib *inbox) forward() {
	defer close(ib.recv)
	var batch []Frame
	for {
		<-ib.ready
		var ok bool
		if batch, ok = ib.Take(batch); !ok {
			return
		}
		for i := range batch {
			select {
			case ib.recv <- batch[i]:
				batch[i] = Frame{}
			case <-ib.done:
				return
			}
		}
	}
}
