package acs

import (
	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// Proposal dissemination (see the package header): a proposal is an rb
// broadcast under the plane's tag, echoed by digest. Everything here
// runs on the node's delivery goroutine.

// planeTag names the RB instance carrying proposals in session sid's
// plane scope.
func planeTag(sid uint64) proto.Tag {
	return proto.Tag{Proto: proto.ProtoACS, A: uint32(sid)}
}

// wirePlane routes the plane stack's accepted proposals to the session.
// A ProtoACS broadcast under any other tag names no proposal of it.
func (d *Driver) wirePlane(s *session, st *core.Stack) {
	tag := planeTag(s.sid)
	st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, t proto.Tag, value []byte) {
		if t == tag {
			d.onProposal(s, origin, value)
		}
	})
}

// sendOwnValue broadcasts this process's proposal: its type 1 once to
// each peer, and into the local engine without a frame or a copy.
func (d *Driver) sendOwnValue(s *session, st *core.Stack, ctx sim.Context) {
	ctx = st.Node.Ctx(ctx)
	msg := rb.WeakMsg{Origin: d.cfg.Self, Tag: planeTag(s.sid), Phase: rb.Type1, Value: s.ownValue}
	var pl sim.Payload = msg
	for p := 1; p <= d.cfg.N; p++ {
		if sim.ProcID(p) != d.cfg.Self {
			ctx.Send(sim.ProcID(p), pl)
		}
	}
	s.ownValue = nil // the engine holds it now
	st.Node.RB().Handle(ctx, sim.Message{From: d.cfg.Self, To: d.cfg.Self, Payload: msg})
}

// pushValue is the totality step. Once this process holds proposal j
// and knows agreement j decided 1, the plane's engine pushes the value
// to every process it has not seen echo the accepted digest: everyone
// who echoed it holds the value already, anyone else may be waiting
// for it, and a plane that retired can no longer be asked. The engine
// pushes once, and only where it holds the proposer's own body and is
// not the proposer, whose first send covered everyone.
func (d *Driver) pushValue(s *session, j int) {
	if !s.has[j] || s.decided[j] != 1 {
		return
	}
	if st := s.plane.Stack(); st != nil {
		ctx := st.Node.Ctx(s.plane.Ctx())
		d.forwards.Add(int64(st.Node.RB().Push(ctx, sim.ProcID(j), planeTag(s.sid))))
	}
}
