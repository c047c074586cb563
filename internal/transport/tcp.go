package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"svssba/internal/sim"
)

// Wire format of a TCP link, little-endian like internal/proto:
//
//	hello:  u16 sender id            (once, by the dialing side)
//	frame:  u32 length ++ payload    (repeated)
//
// Connections are directional: each process listens for inbound links
// and keeps one reconnecting dialer per peer for outbound traffic, so a
// fully-connected n-cluster carries n·(n−1) one-way links. A frame is
// only dequeued from a dialer's backlog after a successful write, and
// one with more frames behind it is kept until the next write on the
// same connection succeeds too; reconnects therefore retransmit rather
// than lose (possibly duplicating a frame in flight, which the protocol
// layers tolerate).
const (
	// maxFrame bounds a decoded frame length; bigger prefixes mean a
	// corrupt or hostile stream and kill the connection.
	maxFrame = 16 << 20
	// dialBackoffMin/Max bound the reconnect backoff of a dialer.
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 500 * time.Millisecond
	// maxBacklog caps a dialer's retained frames. A permanently dead
	// peer would otherwise accumulate the whole run's traffic toward it;
	// once the cap is hit the oldest half is shed — indistinguishable
	// from the silent drop a crashed endpoint already models.
	maxBacklog = 1 << 16
)

// TCP is the socket transport: one listener for inbound links, one
// reconnecting dialer per peer for outbound links.
type TCP struct {
	self   sim.ProcID
	listen string
	*inbox

	mu       sync.Mutex
	started  bool
	closed   bool
	addrs    map[sim.ProcID]string
	dialers  map[sim.ProcID]*dialer
	listener net.Listener
	conns    map[net.Conn]struct{}
	errs     []error

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ Transport = (*TCP)(nil)

// NewTCP creates a socket transport for process self listening on
// listenAddr (":0" picks an ephemeral port — read it back with Addr).
// Peer addresses can be supplied now or later via SetPeers; a dialer
// only needs its peer's address by the time it first connects.
func NewTCP(self sim.ProcID, listenAddr string, peers map[sim.ProcID]string) *TCP {
	t := &TCP{
		self:    self,
		listen:  listenAddr,
		inbox:   newInbox(),
		addrs:   make(map[sim.ProcID]string, len(peers)),
		dialers: make(map[sim.ProcID]*dialer),
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	for p, a := range peers {
		t.addrs[p] = a
	}
	return t
}

func (t *TCP) Self() sim.ProcID { return t.self }

// SetPeers merges peer addresses (id -> host:port).
func (t *TCP) SetPeers(peers map[sim.ProcID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, a := range peers {
		t.addrs[p] = a
	}
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listener != nil {
		return t.listener.Addr().String()
	}
	return t.listen
}

// Start binds the listener and begins accepting inbound links.
func (t *TCP) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: tcp %d is closed", t.self)
	}
	if t.started {
		return nil
	}
	ln, err := net.Listen("tcp", t.listen)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", t.listen, err)
	}
	t.listener = ln
	t.started = true
	t.inbox.start()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// Send queues a pooled copy of data for peer `to`, recycled once the
// dialer releases the frame: a warm sender pays a memcpy but no
// allocation. Self-addressed frames loop back through the local inbox
// (dropped before Start and after Close, like a dead endpoint's) as an
// immutable copy, never a recycled one: the receiver may alias it.
func (t *TCP) Send(to sim.ProcID, data []byte) error {
	if to == t.self {
		t.inbox.push(Frame{From: t.self, Data: bytes.Clone(data)})
		return nil
	}
	if d := t.dialerFor(to); d != nil {
		d.push(data)
	}
	return nil
}

// dialerFor returns (creating on first use) the outbound link to peer,
// or nil once the transport closed.
func (t *TCP) dialerFor(to sim.ProcID) *dialer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	d, ok := t.dialers[to]
	if !ok {
		d = newDialer(t, to)
		t.dialers[to] = d
		t.wg.Add(1)
		go d.run()
	}
	return d
}

// sendBufPool recycles Send's frame copies.
var sendBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Close tears down the listener, all links, and the inbox.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ln := t.listener
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	dialers := make([]*dialer, 0, len(t.dialers))
	for _, d := range t.dialers {
		dialers = append(dialers, d)
	}
	t.mu.Unlock()

	close(t.stop)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, d := range dialers {
		d.close()
	}
	t.inbox.close()
	t.wg.Wait()
	return nil
}

// Errs returns connection-level errors observed so far (handshake
// failures, oversized frames). Reconnectable dial/write errors are not
// recorded — retrying them is the transport's job, not the caller's.
func (t *TCP) Errs() []error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]error, len(t.errs))
	copy(out, t.errs)
	return out
}

func (t *TCP) addErr(err error) {
	t.mu.Lock()
	t.errs = append(t.errs, err)
	t.mu.Unlock()
}

func (t *TCP) addrFor(p sim.ProcID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[p]
	return a, ok
}

func (t *TCP) trackConn(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *TCP) untrackConn(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.trackConn(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop consumes one inbound link: hello, then frames until error.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrackConn(conn)
	defer conn.Close()
	var hello [2]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := sim.ProcID(binary.LittleEndian.Uint16(hello[:]))
	if from < 1 {
		t.addErr(fmt.Errorf("transport: bad hello id %d from %s", from, conn.RemoteAddr()))
		return
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxFrame {
			t.addErr(fmt.Errorf("transport: frame of %d bytes from %d exceeds limit", n, from))
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		t.inbox.push(Frame{From: from, Data: data})
	}
}

// recycle returns a backlog frame's buffer to the send pool; nil is no
// frame.
func recycle(f *[]byte) {
	if f != nil {
		sendBufPool.Put(f)
	}
}

// dialer owns the outbound link to one peer: an unbounded backlog and a
// writer goroutine that (re)connects with exponential backoff and only
// drops a frame once it has been written to a live connection (see run).
type dialer struct {
	t    *TCP
	peer sim.ProcID

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*[]byte // pooled frame copies
	closed  bool
}

func newDialer(t *TCP, peer sim.ProcID) *dialer {
	d := &dialer{t: t, peer: peer}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// push queues a pooled copy of data.
func (d *dialer) push(data []byte) {
	f := sendBufPool.Get().(*[]byte)
	*f = append((*f)[:0], data...)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		recycle(f)
		return
	}
	if len(d.backlog) >= maxBacklog {
		// Shed the oldest half in one compaction (amortized O(1)
		// per push) so the array itself is reclaimed too.
		shed := d.backlog[:len(d.backlog)-maxBacklog/2]
		keep := d.backlog[len(d.backlog)-maxBacklog/2:]
		d.backlog = append(make([]*[]byte, 0, maxBacklog), keep...)
		for _, f := range shed {
			recycle(f)
		}
	}
	d.backlog = append(d.backlog, f)
	d.cond.Signal()
	d.mu.Unlock()
}

func (d *dialer) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// head blocks until a frame is available or the dialer is closed. The
// frame stays at the head of the backlog until pop confirms the write.
func (d *dialer) head() (*[]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.backlog) == 0 && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return nil, false
	}
	return d.backlog[0], true
}

// pop dequeues the written head frame and reports whether more frames
// are queued behind it. The frame itself stays with the writer.
func (d *dialer) pop() (more bool) {
	d.mu.Lock()
	d.backlog[0] = nil
	d.backlog = d.backlog[1:]
	more = len(d.backlog) > 0
	d.mu.Unlock()
	return more
}

// unshift puts an unconfirmed frame back at the head of the backlog, or
// recycles it once the dialer is closed.
func (d *dialer) unshift(f *[]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		recycle(f)
		return
	}
	d.backlog = append(d.backlog, nil)
	copy(d.backlog[1:], d.backlog)
	d.backlog[0] = f
}

func (d *dialer) run() {
	defer d.t.wg.Done()
	var conn net.Conn
	// last is the previous frame written on conn while more were queued.
	// A write to a peer that has already closed succeeds once (it provokes
	// the reset that fails the next write), so while the backlog streams
	// a frame is released only when the next write on the same connection
	// succeeds; a failed write puts it back ahead of the failed frame, and
	// both are retransmitted whole after reconnecting. Once the backlog
	// drains the last write stands, so an idle link pins no buffer.
	var last *[]byte
	drop := func() {
		if conn != nil {
			d.t.untrackConn(conn)
			conn.Close()
			conn = nil
		}
		if last != nil {
			d.unshift(last)
			last = nil
		}
	}
	defer drop()
	backoff := dialBackoffMin
	// The length prefix and the body leave in one writev. The vector is
	// declared once because WriteTo makes it escape: a per-frame literal
	// would allocate per frame.
	var hdr [4]byte
	var vec [2][]byte
	var bufs net.Buffers
	for {
		f, ok := d.head()
		if !ok {
			return
		}
		if conn == nil {
			c, err := d.connect()
			if err != nil {
				if !d.sleep(backoff) {
					return
				}
				backoff = min(backoff*2, dialBackoffMax)
				continue
			}
			conn = c
			backoff = dialBackoffMin
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(*f)))
		vec = [2][]byte{hdr[:], *f}
		bufs = vec[:]
		if _, err := bufs.WriteTo(conn); err == nil {
			recycle(last)
			last = nil
			if d.pop() {
				last = f
			} else {
				recycle(f)
			}
			continue
		}
		drop()
	}
}

// connect dials the peer and performs the hello handshake.
func (d *dialer) connect() (net.Conn, error) {
	addr, ok := d.t.addrFor(d.peer)
	if !ok {
		return nil, fmt.Errorf("transport: no address for peer %d", d.peer)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	var hello [2]byte
	binary.LittleEndian.PutUint16(hello[:], uint16(d.t.self))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if !d.t.trackConn(conn) {
		conn.Close()
		return nil, fmt.Errorf("transport: closed")
	}
	return conn, nil
}

// sleep waits for the backoff or the transport stop, whichever first.
func (d *dialer) sleep(dur time.Duration) bool {
	timer := time.NewTimer(dur)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-d.t.stop:
		return false
	}
}
