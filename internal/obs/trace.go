package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindRBAccept: a reliable-broadcast instance accepted a value.
	// Origin = RB instance originator, A = proto namespace of the tag,
	// B = tag step, C = accepted value size in bytes.
	KindRBAccept Kind = 1 + iota
	// KindMWShare: an MW-SVSS sharing completed. Origin = MW dealer,
	// A = moderator, B = parent session kind.
	KindMWShare
	// KindMWRecon: an MW-SVSS reconstruction completed. Same packing.
	KindMWRecon
	// KindCoin: a common-coin flip resolved. A = ABA round, B = coin bit.
	KindCoin
	// KindABARound: the ABA engine advanced to a new round. A = round.
	KindABARound
	// KindDecide: the ABA engine decided. A = decided value.
	KindDecide
	// KindScopeOpen: a service-mode session scope opened. Scope = id.
	KindScopeOpen
	// KindScopeRetire: a service-mode session scope retired. Scope = id.
	KindScopeRetire
)

// String returns the stable event-kind name used in JSONL export.
func (k Kind) String() string {
	switch k {
	case KindRBAccept:
		return "rb-accept"
	case KindMWShare:
		return "mw-share"
	case KindMWRecon:
		return "mw-recon"
	case KindCoin:
		return "coin"
	case KindABARound:
		return "aba-round"
	case KindDecide:
		return "decide"
	case KindScopeOpen:
		return "scope-open"
	case KindScopeRetire:
		return "scope-retire"
	default:
		return "unknown"
	}
}

// Event is one traced protocol transition. The meaning of Origin/A/B/C
// depends on Kind (see the Kind constants). At is microseconds since
// the tracer was created; Scope is the service-mode session scope (0
// in single-session mode).
type Event struct {
	At     int64
	Node   uint16
	Scope  uint64
	Kind   Kind
	Origin uint16
	A      uint64
	B      uint64
	C      uint64
}

// Tracer is a fixed-capacity ring buffer of Events. Record is
// allocation-free: one mutex acquisition and a struct store. The
// intended writer is the node's single delivery goroutine; the mutex
// exists so snapshot readers (HTTP endpoint, tests) can drain
// concurrently without racing.
type Tracer struct {
	node  uint16
	start time.Time

	mu    sync.Mutex
	buf   []Event
	next  int   // ring write cursor
	total int64 // events ever recorded (>= len kept)
}

// NewTracer creates a tracer for the given node id keeping the last
// capacity events (min 16).
func NewTracer(node int, capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{
		node:  uint16(node),
		start: time.Now(),
		buf:   make([]Event, capacity),
	}
}

// Record appends an event, overwriting the oldest when full.
func (t *Tracer) Record(kind Kind, scope uint64, origin int, a, b, c uint64) {
	if t == nil {
		return
	}
	at := time.Since(t.start).Microseconds()
	t.mu.Lock()
	t.buf[t.next] = Event{
		At:     at,
		Node:   t.node,
		Scope:  scope,
		Kind:   kind,
		Origin: uint16(origin),
		A:      a,
		B:      b,
		C:      c,
	}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Total returns the number of events ever recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	kept := int(t.total)
	if kept > n {
		kept = n
	}
	out := make([]Event, 0, kept)
	// Oldest retained event sits at next when the ring has wrapped,
	// else at 0.
	if int(t.total) > n {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf[:t.next]...)
	}
	return out
}

// WriteJSONL writes the retained events oldest-first, one JSON object
// per line:
//
//	{"at_us":1234,"node":0,"scope":257,"kind":"coin","origin":0,"a":2,"b":1,"c":0}
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range events {
		line = appendEventJSON(line[:0], e)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"at_us":`...)
	b = strconv.AppendInt(b, e.At, 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendUint(b, uint64(e.Node), 10)
	b = append(b, `,"scope":`...)
	b = strconv.AppendUint(b, e.Scope, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","origin":`...)
	b = strconv.AppendUint(b, uint64(e.Origin), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendUint(b, e.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendUint(b, e.B, 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendUint(b, e.C, 10)
	b = append(b, '}')
	return b
}
