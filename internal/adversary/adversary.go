// Package adversary provides composable Byzantine behaviours for the
// protocol stack. A behaviour configures outbound tampering on a
// core.Stack: the process runs the honest state machines but corrupts,
// drops or equivocates selected traffic — the standard way to model
// "arbitrarily malicious" processes while keeping them message-compatible
// enough to attack the interesting code paths (a process that only
// babbles is filtered out trivially).
//
// Behaviours compose: Apply chains all send and broadcast tampers.
//
// Beyond the message-corrupting behaviours (RValLiar, EchoLiar,
// DealCorruptor, VoteFlipper, VoteEquivocator), the package models
// scheduling-flavoured and cross-round attacks for the scenario matrix:
//
//   - TargetedDelay starves a victim set while feeding everyone else,
//     then releases the backlog in a burst (a process-local partition).
//   - MuteThenBurst stays silent for a prefix of the run and then
//     replays its entire buffered backlog at once, stressing stale-
//     message handling.
//   - CrossSessionEquivocator lies only in sessions of one round
//     parity, so behaviour differs across sessions — the cheapest way
//     to probe whether detections in one session carry to the next.
//   - CoinBiaser lies specifically about common-coin reconstruction
//     values, trying to drag the minimum lottery value (and with it the
//     coin's parity) toward a chosen outcome.
package adversary

import (
	"svssba/internal/aba"
	"svssba/internal/core"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// Behavior mutates outbound traffic of one process.
type Behavior struct {
	// Name identifies the behaviour in experiment tables.
	Name string
	// Send rewrites or drops a direct message (nil = pass-through).
	Send core.SendTamper
	// Bcast rewrites or drops a broadcast value (nil = pass-through).
	Bcast core.BcastTamper
}

// Apply installs the chained behaviours on the stack.
func Apply(st *core.Stack, behaviors ...Behavior) {
	var sends []core.SendTamper
	var bcasts []core.BcastTamper
	for _, b := range behaviors {
		if b.Send != nil {
			sends = append(sends, b.Send)
		}
		if b.Bcast != nil {
			bcasts = append(bcasts, b.Bcast)
		}
	}
	if len(sends) > 0 {
		st.Node.SetSendTamper(func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			for _, f := range sends {
				var keep bool
				p, keep = f(ctx, to, p)
				if !keep {
					return nil, false
				}
			}
			return p, true
		})
	}
	if len(bcasts) > 0 {
		st.Node.SetBcastTamper(func(ctx sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
			for _, f := range bcasts {
				var keep bool
				value, keep = f(ctx, tag, value)
				if !keep {
					return nil, false
				}
			}
			return value, true
		})
	}
}

// Silent drops every outbound message and broadcast (a fail-stop process
// that still consumes input).
func Silent() Behavior {
	return Behavior{
		Name:  "silent",
		Send:  func(sim.Context, sim.ProcID, sim.Payload) (sim.Payload, bool) { return nil, false },
		Bcast: func(sim.Context, proto.Tag, []byte) ([]byte, bool) { return nil, false },
	}
}

// RValLiar corrupts the process's MW-SVSS reconstruct-phase reveals by a
// fixed offset — the attack shape of the paper's Example 1, and the
// canonical way to (attempt to) break Weak Binding.
func RValLiar(offset uint64) Behavior {
	return Behavior{
		Name:  "rval-liar",
		Bcast: lieOnReveals(everySession, addOffset(offset)),
	}
}

// lieOnReveals returns a broadcast tamper that rewrites every share of
// the process's R' step 1 reveals (mwsvss.StepRValSlab) in the sessions
// lying selects.
func lieOnReveals(lying func(proto.SessionID) bool, lie func(field.Element) field.Element) core.BcastTamper {
	return func(_ sim.Context, tag proto.Tag, value []byte) ([]byte, bool) {
		if tag.Proto != proto.ProtoMW || tag.Step != mwsvss.StepRValSlab || !lying(tag.Session) {
			return value, true
		}
		out, _ := mwsvss.MapSlab(value, func(_ int, _ sim.ProcID, v field.Element) field.Element {
			return lie(v)
		})
		return out, true
	}
}

func everySession(proto.SessionID) bool { return true }

func addOffset(offset uint64) func(field.Element) field.Element {
	d := field.New(offset)
	return func(v field.Element) field.Element { return v.Add(d) }
}

// offsetEcho adds offset to every value of an MW-SVSS share-step echo.
func offsetEcho(e mwsvss.Echo, offset uint64) mwsvss.Echo {
	vals := make([]field.Element, len(e.Vals))
	for i, v := range e.Vals {
		vals[i] = v.Add(field.New(offset))
	}
	return mwsvss.Echo{MW: e.MW, Vals: vals}
}

// EchoLiar corrupts the private echo values of MW-SVSS share step 2,
// sabotaging confirmations so the liar is excluded from L sets.
func EchoLiar(offset uint64) Behavior {
	return Behavior{
		Name: "echo-liar",
		Send: func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if e, ok := p.(mwsvss.Echo); ok {
				return offsetEcho(e, offset), true
			}
			return p, true
		},
	}
}

// DealCorruptor corrupts the SVSS row/column polynomials this process
// deals to the given victims (a faulty SVSS dealer).
func DealCorruptor(victims map[sim.ProcID]bool) Behavior {
	return Behavior{
		Name: "deal-corruptor",
		Send: func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			d, ok := p.(svss.Deal)
			if !ok || !victims[to] {
				return p, true
			}
			row := make([]field.Element, len(d.RowPts))
			col := make([]field.Element, len(d.ColPts))
			for i := range d.RowPts {
				row[i] = d.RowPts[i].Add(field.New(uint64(i + 1)))
			}
			for i := range d.ColPts {
				col[i] = d.ColPts[i].Add(field.New(uint64(2*i + 1)))
			}
			return svss.Deal{Session: d.Session, RowPts: row, ColPts: col}, true
		},
	}
}

// VoteFlipper inverts every outgoing agreement vote and confirmation.
func VoteFlipper() Behavior {
	return Behavior{
		Name: "vote-flipper",
		Send: func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			switch v := p.(type) {
			case aba.Vote:
				return aba.Vote{Step: v.Step, Round: v.Round, Value: 1 - v.Value}, true
			case aba.Conf:
				return aba.Conf{Round: v.Round, Mask: 3 - v.Mask&3}, true
			}
			return p, true
		},
	}
}

// VoteEquivocator sends opposite vote values to even- and odd-numbered
// peers (the classic split attack on voting protocols).
func VoteEquivocator() Behavior {
	return Behavior{
		Name: "vote-equivocator",
		Send: func(_ sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if v, ok := p.(aba.Vote); ok && to%2 == 0 {
				return aba.Vote{Step: v.Step, Round: v.Round, Value: 1 - v.Value}, true
			}
			return p, true
		},
	}
}

// burstBuffer is the hold-then-replay machinery shared by TargetedDelay
// and MuteThenBurst: messages are parked by hold and later replayed in
// original order by burst.
//
// burst sends through the raw (un-tampered) context, so the backlog does
// not re-enter the tamper chain. A held message has passed every tamper
// applied *before* the holding behaviour but none after it — compose
// burst behaviours last so the backlog is fully corrupted when captured.
type burstBuffer struct {
	held []struct {
		to sim.ProcID
		p  sim.Payload
	}
	released bool
}

func (b *burstBuffer) hold(to sim.ProcID, p sim.Payload) {
	b.held = append(b.held, struct {
		to sim.ProcID
		p  sim.Payload
	}{to: to, p: p})
}

func (b *burstBuffer) burst(ctx sim.Context) {
	b.released = true
	for _, h := range b.held {
		ctx.Send(h.to, h.p)
	}
	b.held = nil
}

// TargetedDelay holds back every message addressed to a victim until
// the process has sent holdSends messages to non-victims, then releases
// the whole backlog in original order (followed by normal delivery).
// It approximates an adversarial scheduler that starves a subnet from
// inside one process — "partition-aware" in that the victim set is
// typically one side of a PartitionScheduler cut, doubling the damage.
// Compose it last (see burstBuffer).
func TargetedDelay(holdSends int, victims ...sim.ProcID) Behavior {
	vic := make(map[sim.ProcID]bool, len(victims))
	for _, v := range victims {
		vic[v] = true
	}
	var buf burstBuffer
	others := 0
	return Behavior{
		Name: "targeted-delay",
		Send: func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if buf.released {
				return p, true
			}
			if vic[to] {
				buf.hold(to, p)
				return nil, false
			}
			others++
			if others >= holdSends {
				buf.burst(ctx)
			}
			return p, true
		},
	}
}

// MuteThenBurst buffers its first mute outbound messages (the process
// looks silent), then replays the entire backlog in original order the
// moment the mute budget is exceeded and behaves normally afterwards.
// The burst of stale traffic probes handling of long-delayed messages
// arriving after the protocol has moved on. Compose it last (see
// burstBuffer).
func MuteThenBurst(mute int) Behavior {
	var buf burstBuffer
	return Behavior{
		Name: "mute-burst",
		Send: func(ctx sim.Context, to sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if buf.released {
				return p, true
			}
			if len(buf.held) < mute {
				buf.hold(to, p)
				return nil, false
			}
			buf.burst(ctx)
			return p, true
		},
	}
}

// CrossSessionEquivocator corrupts MW-SVSS reconstruction reveals and
// share-phase echoes by a fixed offset, but only in sessions whose Round
// is odd — honest in half the sessions, lying in the other half. Unlike
// a persistent liar it gives the detection layer no single session in
// which its story is consistent-and-wrong twice, testing that shun state
// genuinely accumulates across sessions.
func CrossSessionEquivocator(offset uint64) Behavior {
	lying := func(sid proto.SessionID) bool { return sid.Round%2 == 1 }
	return Behavior{
		Name: "cross-equivocate",
		Send: func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if e, ok := p.(mwsvss.Echo); ok && lying(e.MW.Session) {
				return offsetEcho(e, offset), true
			}
			return p, true
		},
		Bcast: lieOnReveals(lying, addOffset(offset)),
	}
}

// CoinBiaser attacks the common coin: it rewrites every share of its
// reconstruction reveals for coin-session sharings to a fixed value,
// trying to drag reconstructed lottery values (and hence the parity of
// the minimum) toward the attacker's choice. SVSS binding turns the lie into
// detections instead of bias — which is exactly what a scenario matrix
// should observe: shun events, not a skewed coin.
func CoinBiaser(toward uint64) Behavior {
	return Behavior{
		Name: "coin-bias",
		Bcast: lieOnReveals(
			func(sid proto.SessionID) bool { return sid.Kind == proto.KindCoin },
			func(field.Element) field.Element { return field.New(toward) }),
	}
}

// MuteKinds drops outbound messages of the given payload kinds.
func MuteKinds(kinds ...string) Behavior {
	set := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return Behavior{
		Name: "mute",
		Send: func(_ sim.Context, _ sim.ProcID, p sim.Payload) (sim.Payload, bool) {
			if set[p.Kind()] {
				return nil, false
			}
			return p, true
		},
	}
}
