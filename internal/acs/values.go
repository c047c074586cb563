package acs

import (
	"crypto/sha256"

	"svssba/internal/core"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// Proposal dissemination (see the package header): values travel as
// proto.Value messages, their SHA-256 digests through the plane stack's
// unchanged RB engine. Everything here runs on the node's delivery
// goroutine.

type digest = [sha256.Size]byte

// proposal is what a plane knows about one proposer's value beyond the
// value itself (session.values) and whether it was delivered
// (session.has).
type proposal struct {
	sum       digest // SHA-256 of values[j], while the proposer's own copy is stored
	want      digest // the RB-accepted digest
	accepted  bool
	forwarded bool // the totality push for this proposal ran
}

// pair is the plane's state per (sender, proposer).
type pair struct {
	echo   digest // what the sender's first type 2 for the proposer's broadcast carried
	echoed bool
	used   bool // the sender's one candidate slot for this proposer is spent
}

// planeTag names the RB instance carrying proposal digests in session
// sid's plane scope.
func planeTag(sid uint64) proto.Tag {
	return proto.Tag{Proto: proto.ProtoACS, A: uint32(sid)}
}

func (s *session) pair(sender, proposer int) *pair {
	return &s.pairs[sender*len(s.props)+proposer]
}

// stored counts the value buffers the session holds: delivered values,
// proposers' copies awaiting their digest, and buffered forwards.
func (s *session) stored() int {
	k := len(s.relayed)
	for _, v := range s.values {
		if v != nil {
			k++
		}
	}
	return k
}

// cloneValue copies a value out of its frame buffer. The result is never
// nil, so a stored empty proposal stays distinguishable from none.
func cloneValue(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// wirePlane installs the dissemination handlers on a fresh plane stack.
func (d *Driver) wirePlane(s *session, st *core.Stack) {
	st.Node.HandleDirect(proto.KindValue, func(ctx sim.Context, m sim.Message) {
		d.onValue(s, st, ctx, m)
	})
	st.Node.HandleBroadcast(proto.ProtoACS, func(_ sim.Context, origin sim.ProcID, tag proto.Tag, sum []byte) {
		d.onDigest(s, origin, tag, sum)
	})
	st.Node.SetRecvGate(d.planeGate(s))
	st.CountHosted(s.stored)
}

// planeGate is the plane stack's receive gate. It keeps one promise —
// this process sends a type 2 for a digest only while it stores a value
// hashing to it — by refusing proposal type 1s off the wire: the only
// type 1 the plane's WRB ever sees is the one offerOwn feeds it. And it
// notes which digest each peer's type 2 carried, which is how pushValue
// knows who already holds a value.
func (d *Driver) planeGate(s *session) func(sim.ProcID, sim.Payload) bool {
	tag := planeTag(s.sid)
	return func(from sim.ProcID, p sim.Payload) bool {
		m, ok := p.(rb.WeakMsg)
		if !ok || m.Tag.Proto != proto.ProtoACS {
			return true
		}
		if m.Phase != rb.Type2 {
			return false
		}
		j, q := int(m.Origin), int(from)
		if m.Tag == tag && j >= 1 && j <= d.cfg.N && q >= 1 && q <= d.cfg.N && len(m.Value) == sha256.Size {
			if pr := s.pair(q, j); !pr.echoed {
				pr.echoed = true
				copy(pr.echo[:], m.Value)
			}
		}
		return true
	}
}

// sendOwnValue ships this process's proposal: once to each peer, and
// into the local store without touching the transport.
func (d *Driver) sendOwnValue(s *session, st *core.Stack, ctx sim.Context) {
	ctx = st.Node.Ctx(ctx)
	var pl sim.Payload = proto.Value{Origin: d.cfg.Self, Value: s.ownValue}
	for p := 1; p <= d.cfg.N; p++ {
		if sim.ProcID(p) != d.cfg.Self {
			ctx.Send(sim.ProcID(p), pl)
		}
	}
	d.offerOwn(s, st, ctx, int(d.cfg.Self), s.ownValue)
}

// onValue handles a proposal value off the wire: the proposer's own
// send, or a forward of it. Either way the sender gets one slot per
// proposer per session, and the value is copied out of the frame only
// if it is kept.
func (d *Driver) onValue(s *session, st *core.Stack, ctx sim.Context, m sim.Message) {
	msg, ok := m.Payload.(proto.Value)
	j, q := int(msg.Origin), int(m.From)
	if !ok || s.completed || j < 1 || j > d.cfg.N || q < 1 || q > d.cfg.N {
		return
	}
	pr := s.pair(q, j)
	if pr.used || s.has[j] {
		d.candDropped.Add(1)
		return
	}
	pr.used = true
	if q == j {
		d.offerOwn(s, st, ctx, j, cloneValue(msg.Value))
		return
	}
	// A forward is only ever a candidate: it never makes us echo.
	o := &s.props[j]
	switch {
	case !o.accepted:
		if s.relayed == nil {
			s.relayed = make(map[int]([]byte))
		}
		s.relayed[q*len(s.props)+j] = cloneValue(msg.Value)
	case sha256.Sum256(msg.Value) == o.want:
		d.onProposal(s, msg.Origin, cloneValue(msg.Value))
	default:
		d.candDropped.Add(1)
	}
}

// offerOwn stores v as what proposer j itself sent (v is ours to keep)
// and only then has the plane's WRB echo its digest, by feeding it the
// type 1 that on the paper's RB the proposer would have sent.
func (d *Driver) offerOwn(s *session, st *core.Stack, ctx sim.Context, j int, v []byte) {
	o := &s.props[j]
	o.sum = sha256.Sum256(v)
	if o.accepted && o.sum != o.want {
		d.candDropped.Add(1) // an equivocating proposer's losing value
		return
	}
	s.values[j] = v
	st.Node.RB().Handle(ctx, sim.Message{
		From:    sim.ProcID(j),
		To:      d.cfg.Self,
		Payload: rb.WeakMsg{Origin: sim.ProcID(j), Tag: planeTag(s.sid), Phase: rb.Type1, Value: o.sum[:]},
	})
	if o.accepted {
		d.onProposal(s, sim.ProcID(j), v)
	}
}

// onDigest handles the RB accept of proposer origin's digest and
// delivers the proposal if a stored candidate hashes to it. Candidates
// that do not are freed here; later ones are checked on arrival.
func (d *Driver) onDigest(s *session, origin sim.ProcID, tag proto.Tag, sum []byte) {
	j := int(origin)
	if s.completed || tag != planeTag(s.sid) || len(sum) != sha256.Size || j < 1 || j > d.cfg.N {
		return
	}
	o := &s.props[j]
	if o.accepted {
		return
	}
	o.accepted = true
	copy(o.want[:], sum)
	if s.values[j] != nil && o.sum != o.want {
		s.values[j] = nil
		d.candDropped.Add(1)
	}
	for q := 1; q <= d.cfg.N && len(s.relayed) > 0; q++ {
		k := q*len(s.props) + j
		v, ok := s.relayed[k]
		if !ok {
			continue
		}
		delete(s.relayed, k)
		if s.values[j] == nil && sha256.Sum256(v) == o.want {
			s.values[j] = v
		} else {
			d.candDropped.Add(1)
		}
	}
	if v := s.values[j]; v != nil {
		d.onProposal(s, origin, v)
	}
}

// pushValue is the totality step. The first time this process both
// holds proposal j and knows agreement j decided 1, it forwards the
// value to every process it has not seen echo the accepted digest —
// everyone who echoed it stores the value already (planeGate), anyone
// else may be waiting for it, and a plane that retired can no longer be
// asked. The proposer's first send already covers its own proposal.
func (d *Driver) pushValue(s *session, j int) {
	o := &s.props[j]
	if o.forwarded || !s.has[j] || s.decided[j] != 1 {
		return
	}
	o.forwarded = true
	st := s.plane.Stack()
	if j == int(d.cfg.Self) || st == nil {
		return
	}
	var ctx sim.Context
	var pl sim.Payload
	for q := 1; q <= d.cfg.N; q++ {
		if q == j || q == int(d.cfg.Self) {
			continue
		}
		if pr := s.pair(q, j); pr.echoed && pr.echo == o.want {
			continue
		}
		if pl == nil {
			ctx = st.Node.Ctx(s.plane.Ctx())
			pl = proto.Value{Origin: sim.ProcID(j), Value: s.values[j]}
		}
		ctx.Send(sim.ProcID(q), pl)
		d.forwards.Add(1)
	}
}

// releaseValues drops the session's references to every stored value
// (a decision's Values keep the delivered ones alive for as long as the
// consumer wants them) and counts the candidates that never delivered.
func (d *Driver) releaseValues(s *session) {
	dropped := len(s.relayed)
	for j, v := range s.values {
		if v != nil && !s.has[j] {
			dropped++
		}
	}
	d.candDropped.Add(int64(dropped))
	clear(s.values)
	s.relayed = nil
}
