// Package gather implements the three-round common-core ("gather")
// protocol that is implicit in the Canetti–Rabin common coin (paper §5,
// citing [6] Fig 5-9): every party broadcasts a set of verified parties;
// parties echo quorums of validated sets twice more. The construction
// ensures that the output sets of nonfaulty parties contain a large
// common core that is fixed before the first nonfaulty party outputs —
// which is what lets the coin's lottery values be chosen independently
// of which parties end up in everyone's output set.
//
// The engine is generic over "verification": the layer above (the coin)
// calls Verify(round, j) as parties become locally verified, and the
// engine re-evaluates pending sets monotonically.
//
// Rounds within the engine:
//
//	G1: broadcast S_i, a snapshot of the local verified set (>= n-t).
//	G2: after validating n-t G1 sets (S_j fully verified locally),
//	    broadcast A_i = that set of senders.
//	G3: after validating n-t G2 sets (A_j subset of own validated G1
//	    senders), broadcast B_i = that set of senders.
//	Out: after validating n-t G3 sets (B_j subset of own validated G2
//	    senders), output the union of all validated G1 sets.
package gather

import (
	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Broadcast steps.
const (
	StepG1 uint8 = 1
	StepG2 uint8 = 2
	StepG3 uint8 = 3
)

// Host is what the engine needs from its process.
type Host interface {
	Self() sim.ProcID
	Broadcast(ctx sim.Context, tag proto.Tag, value []byte)
}

// OutputFunc receives the gathered set for a round.
type OutputFunc func(ctx sim.Context, round uint64, set []sim.ProcID)

// round holds one gather instance's state, dense per process: received
// sets live in slices indexed by sender id with a bitset marking which
// senders have one, and validated-sender sets are bitsets.
type round struct {
	id uint64

	verified intern.ProcSet
	g1Sent   bool

	g1Sets [][]sim.ProcID // received S_j (index: sender)
	g1Seen intern.ProcSet
	r1     intern.ProcSet // validated G1 senders
	g2Sent bool

	g2Sets [][]sim.ProcID // received A_j
	g2Seen intern.ProcSet
	r2     intern.ProcSet // validated G2 senders
	g3Sent bool

	g3Sets [][]sim.ProcID // received B_j
	g3Seen intern.ProcSet
	r3     intern.ProcSet // validated G3 senders

	done bool
}

// Engine runs gather instances keyed by round number.
type Engine struct {
	host   Host
	out    OutputFunc
	rounds map[uint64]*round
	n      int // system size, captured from the first ctx
}

// New returns a gather engine delivering outputs to out.
func New(host Host, out OutputFunc) *Engine {
	return &Engine{host: host, out: out, rounds: make(map[uint64]*round)}
}

func (e *Engine) round(ctx sim.Context, r uint64) *round {
	rd, ok := e.rounds[r]
	if !ok {
		if e.n == 0 {
			e.n = ctx.N()
		}
		rd = &round{
			id:     r,
			g1Sets: make([][]sim.ProcID, e.n+1),
			g2Sets: make([][]sim.ProcID, e.n+1),
			g3Sets: make([][]sim.ProcID, e.n+1),
		}
		e.rounds[r] = rd
	}
	return rd
}

// Rounds returns the number of live rounds (retirement tests).
func (e *Engine) Rounds() int { return len(e.rounds) }

// Reset drops every round. Used when the owning stack retires.
func (e *Engine) Reset() { clear(e.rounds) }

// Done reports whether the round has produced its output.
func (e *Engine) Done(r uint64) bool {
	rd, ok := e.rounds[r]
	return ok && rd.done
}

// Verify marks j as locally verified for the round and re-evaluates.
func (e *Engine) Verify(ctx sim.Context, r uint64, j sim.ProcID) {
	rd := e.round(ctx, r)
	if !rd.verified.Add(j) {
		return
	}
	e.advance(ctx, rd)
}

func tag(r uint64, step uint8) proto.Tag {
	return proto.Tag{Proto: proto.ProtoGather, Step: step, A: uint32(r)}
}

// OnBroadcast handles G1/G2/G3 broadcasts.
func (e *Engine) OnBroadcast(ctx sim.Context, origin sim.ProcID, t proto.Tag, value []byte) {
	rd := e.round(ctx, uint64(t.A))
	set, ok := proto.DecodeProcSet(value, ctx.N())
	if !ok || len(set) < ctx.N()-ctx.T() {
		return
	}
	switch t.Step {
	case StepG1:
		if rd.g1Seen.Add(origin) {
			rd.g1Sets[origin] = set
		}
	case StepG2:
		if rd.g2Seen.Add(origin) {
			rd.g2Sets[origin] = set
		}
	case StepG3:
		if rd.g3Seen.Add(origin) {
			rd.g3Sets[origin] = set
		}
	default:
		return
	}
	e.advance(ctx, rd)
}

// advance re-evaluates all monotone conditions for the round.
// Validation sweeps iterate set bits in process-id order; admissions
// are order-insensitive, so this matches the former map iterations
// while keeping runs deterministic by construction.
func (e *Engine) advance(ctx sim.Context, rd *round) {
	nt := ctx.N() - ctx.T()

	// Send G1 once enough parties are verified.
	if !rd.g1Sent && rd.verified.Count() >= nt {
		rd.g1Sent = true
		e.host.Broadcast(ctx, tag(rd.id, StepG1), proto.EncodeProcSet(rd.verified.Slice()))
	}

	// Validate G1 sets: every member verified locally.
	rd.g1Seen.ForEach(func(j sim.ProcID) {
		if !rd.r1.Has(j) && rd.verified.ContainsAll(rd.g1Sets[j]) {
			rd.r1.Add(j)
		}
	})
	if !rd.g2Sent && rd.r1.Count() >= nt {
		rd.g2Sent = true
		e.host.Broadcast(ctx, tag(rd.id, StepG2), proto.EncodeProcSet(rd.r1.Slice()))
	}

	// Validate G2 sets: every member's G1 set validated locally.
	rd.g2Seen.ForEach(func(j sim.ProcID) {
		if !rd.r2.Has(j) && rd.r1.ContainsAll(rd.g2Sets[j]) {
			rd.r2.Add(j)
		}
	})
	if !rd.g3Sent && rd.r2.Count() >= nt {
		rd.g3Sent = true
		e.host.Broadcast(ctx, tag(rd.id, StepG3), proto.EncodeProcSet(rd.r2.Slice()))
	}

	// Validate G3 sets; output once a quorum is validated.
	rd.g3Seen.ForEach(func(j sim.ProcID) {
		if !rd.r3.Has(j) && rd.r2.ContainsAll(rd.g3Sets[j]) {
			rd.r3.Add(j)
		}
	})
	if !rd.done && rd.r3.Count() >= nt {
		rd.done = true
		var union intern.ProcSet
		rd.r1.ForEach(func(j sim.ProcID) {
			for _, m := range rd.g1Sets[j] {
				union.Add(m)
			}
		})
		if e.out != nil {
			e.out(ctx, rd.id, union.Slice())
		}
	}
}
