package core

import (
	"reflect"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// SendTamper rewrites or drops an outgoing direct message. It returns the
// payload to send (possibly modified) and whether to send at all. Used to
// build Byzantine processes as "honest logic plus outbound corruption".
type SendTamper func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool)

// BcastTamper rewrites or drops an outgoing reliable-broadcast value
// before it enters RB (the corrupted value is then broadcast
// consistently, which is exactly how a faulty-but-careful process evades
// RB-level detection, as in the paper's Example 1).
type BcastTamper func(ctx sim.Context, tag proto.Tag, value []byte) ([]byte, bool)

// SetSendTamper installs a direct-send interceptor. All sends made by
// protocol engines hosted on this node pass through it (including RB
// internal traffic).
func (n *Node) SetSendTamper(t SendTamper) { n.sendTamper = t }

// SetBcastTamper installs a broadcast-value interceptor applied in
// Node.Broadcast before the value enters RB.
func (n *Node) SetBcastTamper(t BcastTamper) { n.bcastTamper = t }

// wrap returns the burst context over ctx, which applies the send tamper
// per logical payload and, within a burst, buffers into the destination
// packs (see burstCtx).
//
// Hosts hand a node the same context on every delivery (a value boxed
// once per process or per scope), so the wrapper is boxed once too: the
// last wrap is cached and reused when ctx equals its raw context. The
// equality test runs only when the cached context's dynamic value is
// comparable all the way down — == on an interface holding an
// uncomparable value would panic — and an uncomparable context is
// simply wrapped afresh every time.
func (n *Node) wrap(ctx sim.Context) sim.Context {
	if _, already := ctx.(burstCtx); already {
		return ctx
	}
	if n.wrapCmp && ctx == n.wrapRaw {
		return n.wrapped
	}
	n.wrapped = burstCtx{Context: ctx, node: n}
	n.wrapRaw, n.wrapCmp = ctx, reflect.ValueOf(ctx).Comparable()
	return n.wrapped
}
