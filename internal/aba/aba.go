// Package aba implements binary asynchronous Byzantine agreement on top
// of the shunning common coin — the final step of paper §5 (Theorem 1).
//
// The paper composes its coin with the voting protocol of Canetti's
// thesis (Fig 5-11), which the paper does not reprint; we substitute
// the functionally equivalent BV-broadcast/AUX/CONF
// round structure (Mostéfaoui–Moumen–Raynal 2014 with the Cobalt
// confirmation phase), the modern standard voting layer for binary ABA
// from a (1/4,1/4)-common coin at n > 3t:
//
//	round r (estimate est):
//	 1. BV-broadcast est: send BVAL(r, est); relay any value received
//	    from t+1 distinct senders; a value joins bin_values after 2t+1.
//	 2. Once bin_values is nonempty, send AUX(r, w) for one w in it.
//	    Wait for n−t AUX messages carrying values inside bin_values;
//	    call the carried set vals.
//	 3. Send CONF(r, vals); wait for n−t CONF messages whose sets are
//	    inside bin_values (the Cobalt phase: it prevents the adversary
//	    from steering vals after learning the coin).
//	 4. Invoke the common coin c for round r. If the union of confirmed
//	    sets is a single value v: est := v, and decide v if v = c.
//	    Otherwise est := c. Enter round r+1.
//
// A decided process broadcasts DECIDE(v); receiving t+1 matching DECIDEs
// is an alternative decision path, and n−t of them allow halting.
//
// Safety never depends on the coin. Almost-sure termination follows from
// the SCC Correctness property: in every round whose coin invocation is
// not "ruined" by shunning, all nonfaulty processes obtain a common coin
// value agreeing with any unanimous estimate with probability ≥ 1/4, and
// only t(n−t) = O(n²) invocations can ever be ruined — the paper's
// expected O(n²) round bound.
//
// Crucially for that bound, each process finishes reconstructing every
// coin-r SVSS session before it begins any coin-(r+1) session, so
// successive rounds are ordered by the →_i relation the shunning
// argument needs (paper §5).
//
// # Known-coin prefix
//
// A caller that knows how its inputs are biased may fix the coin of the
// first rounds in advance (SetCoinPrefix). For a prefix round the
// engine takes the round's coin from the prefix at the point it would
// have invoked the common coin and invokes nothing; every later round
// uses the real coin under its own round number. The prefix belongs to
// the caller, not to this package: internal/acs installs (1, 0) on the
// agreements it composes, standalone runs install none and flip a real
// coin every round. All processes of one agreement must install the
// same prefix — the coin of a round has to be common.
//
// Safety is untouched because it never depended on the coin being
// unpredictable, only on its being common: if an honest process decides
// v in round r then c_r = v and every honest process leaves round r
// with est = v, whatever the adversary knew about c_r beforehand; and
// if every honest input is v, only v ever enters bin_values, so no
// honest process can adopt or decide 1−v in any round, prefix or not.
// What a coin known in advance gives the adversary is liveness of the
// prefix rounds only: it can keep honest estimates split through them,
// which wastes len(prefix) voting rounds and no more. Almost-sure
// termination is the paragraph above started at round len(prefix)+1,
// and the →_i ordering of real coin rounds is unchanged, since round
// numbers are not remapped — the prefix rounds' coins are simply never
// dealt. With honest inputs unanimous on v the agreement decides in the
// first prefix round whose bit is v without a single coin flip.
package aba

import (
	"fmt"

	"svssba/internal/intern"
	"svssba/internal/proto"
	"svssba/internal/sim"
)

// Payload kinds.
const (
	KindBVal   = "aba/bval"
	KindAux    = "aba/aux"
	KindConf   = "aba/conf"
	KindDecide = "aba/decide"
)

// Vote is a BVAL or AUX message.
type Vote struct {
	Step  uint8 // 1 = BVAL, 2 = AUX
	Round uint64
	Value uint8 // 0 or 1
}

var _ proto.Marshaler = Vote{}

// Kind implements sim.Payload.
func (v Vote) Kind() string {
	if v.Step == 1 {
		return KindBVal
	}
	return KindAux
}

// Size implements sim.Payload.
func (v Vote) Size() int { return 1 + 8 + 1 }

// MarshalTo implements proto.Marshaler.
func (v Vote) MarshalTo(w *proto.Writer) {
	w.U8(v.Step)
	w.U64(v.Round)
	w.U8(v.Value)
}

// Conf carries the confirmed value set as a bitmask (1, 2 or 3).
type Conf struct {
	Round uint64
	Mask  uint8
}

var _ proto.Marshaler = Conf{}

// Kind implements sim.Payload.
func (Conf) Kind() string { return KindConf }

// Size implements sim.Payload.
func (c Conf) Size() int { return 8 + 1 }

// MarshalTo implements proto.Marshaler.
func (c Conf) MarshalTo(w *proto.Writer) {
	w.U64(c.Round)
	w.U8(c.Mask)
}

// Decide announces a decision.
type Decide struct {
	Value uint8
}

var _ proto.Marshaler = Decide{}

// Kind implements sim.Payload.
func (Decide) Kind() string { return KindDecide }

// Size implements sim.Payload.
func (Decide) Size() int { return 1 }

// MarshalTo implements proto.Marshaler.
func (d Decide) MarshalTo(w *proto.Writer) { w.U8(d.Value) }

// RegisterCodec registers ABA message decoding.
func RegisterCodec(c *proto.Codec) {
	c.Register(KindBVal, func(r *proto.Reader) (sim.Payload, error) {
		return Vote{Step: r.U8(), Round: r.U64(), Value: r.U8()}, r.Err()
	})
	c.Register(KindAux, func(r *proto.Reader) (sim.Payload, error) {
		return Vote{Step: r.U8(), Round: r.U64(), Value: r.U8()}, r.Err()
	})
	c.Register(KindConf, func(r *proto.Reader) (sim.Payload, error) {
		return Conf{Round: r.U64(), Mask: r.U8()}, r.Err()
	})
	c.Register(KindDecide, func(r *proto.Reader) (sim.Payload, error) {
		return Decide{Value: r.U8()}, r.Err()
	})
}

// CoinPort is the slice of the common coin the agreement layer drives.
type CoinPort interface {
	Start(ctx sim.Context, round uint64)
}

// DecideFunc observes the local decision.
type DecideFunc func(ctx sim.Context, value int)

// round holds one voting round's state. Per-sender records are
// bitsets: a "seen" set plus value bitsets replace the former
// map[ProcID]uint8 first-message-per-sender maps, so the vote-counting
// delivery path does bit arithmetic only.
type round struct {
	r uint64

	entered  bool
	bvalSent [2]bool
	bvalRecv [2]intern.ProcSet
	bin      [2]bool

	auxSent bool
	auxSeen intern.ProcSet // senders with a recorded AUX
	auxOne  intern.ProcSet // subset whose AUX value is 1

	confSent bool
	confMask uint8
	confSeen intern.ProcSet // senders with a recorded CONF
	confB0   intern.ProcSet // subset whose mask contains value 0
	confB1   intern.ProcSet // subset whose mask contains value 1

	coinAsked bool
	coinVal   int
	coinKnown bool

	finished bool
}

// Engine runs one binary agreement instance for one process.
type Engine struct {
	self     sim.ProcID
	coin     CoinPort
	onDecide DecideFunc

	rounds  map[uint64]*round
	current uint64
	est     uint8
	started bool

	decided  bool
	decision uint8
	decSent  bool
	decSeen  intern.ProcSet // senders with a recorded DECIDE
	decOne   intern.ProcSet // subset that decided 1
	halted   bool

	// prefix[r-1] is the known coin of round r (see SetCoinPrefix).
	prefix []uint8

	// onRound observes round entry (tracing). Observation-only: it must
	// not send, and it runs after the round state is installed.
	onRound func(r uint64)
}

// New returns an agreement engine. Coin outputs must be routed into
// OnCoin (core.NewStack wires this).
func New(self sim.ProcID, coin CoinPort, onDecide DecideFunc) *Engine {
	return &Engine{
		self:     self,
		coin:     coin,
		onDecide: onDecide,
		rounds:   make(map[uint64]*round),
	}
}

func (e *Engine) round(r uint64) *round {
	rd, ok := e.rounds[r]
	if !ok {
		rd = &round{r: r}
		e.rounds[r] = rd
	}
	return rd
}

// Rounds returns the number of live round records (retirement tests).
func (e *Engine) Rounds() int { return len(e.rounds) }

// Retire drops the per-round and per-sender vote state, keeping the
// decision. Only meaningful once the engine halted: a halted process
// ignores every further message, so the state can never be read again.
func (e *Engine) Retire() {
	clear(e.rounds)
	e.decSeen.Clear()
	e.decOne.Clear()
}

// Decided reports the local decision, if any.
func (e *Engine) Decided() (int, bool) {
	if !e.decided {
		return 0, false
	}
	return int(e.decision), true
}

// Halted reports whether the process has stopped participating.
func (e *Engine) Halted() bool { return e.halted }

// Round returns the current round number (1-based once started).
func (e *Engine) Round() uint64 { return e.current }

// Propose starts the agreement with the given binary input.
func (e *Engine) Propose(ctx sim.Context, value int) error {
	if value != 0 && value != 1 {
		return fmt.Errorf("aba: input %d is not binary", value)
	}
	if e.started {
		return fmt.Errorf("aba: already proposed")
	}
	e.started = true
	e.est = uint8(value)
	e.enter(ctx, 1)
	return nil
}

// SetCoinPrefix fixes the coin of rounds 1..len(bits) to the given bits
// (nil restores a real coin every round): those rounds never call the
// CoinPort and ignore OnCoin. Call before Propose, with the same bits
// at every process of the agreement. The slice is read, never written,
// so callers may share one across engines.
func (e *Engine) SetCoinPrefix(bits []uint8) { e.prefix = bits }

// prefixCoin returns round r's known coin, if r is a prefix round.
func (e *Engine) prefixCoin(r uint64) (uint8, bool) {
	if r < 1 || r > uint64(len(e.prefix)) {
		return 0, false
	}
	return e.prefix[r-1] & 1, true
}

// OnRound registers an observer called each time the engine enters a
// round (nil to clear). Tracing only — the observer must not feed back
// into the protocol.
func (e *Engine) OnRound(fn func(r uint64)) { e.onRound = fn }

func (e *Engine) enter(ctx sim.Context, r uint64) {
	e.current = r
	rd := e.round(r)
	rd.entered = true
	if e.onRound != nil {
		e.onRound(r)
	}
	e.sendBVal(ctx, rd, e.est)
	e.advance(ctx, rd)
}

func (e *Engine) sendBVal(ctx sim.Context, rd *round, v uint8) {
	if rd.bvalSent[v] {
		return
	}
	rd.bvalSent[v] = true
	e.sendAll(ctx, Vote{Step: 1, Round: rd.r, Value: v})
}

func (e *Engine) sendAll(ctx sim.Context, p sim.Payload) {
	for q := 1; q <= ctx.N(); q++ {
		ctx.Send(sim.ProcID(q), p)
	}
}

// OnMessage handles all ABA messages.
func (e *Engine) OnMessage(ctx sim.Context, m sim.Message) {
	if e.halted {
		return
	}
	switch p := m.Payload.(type) {
	case Vote:
		if p.Value > 1 {
			return
		}
		rd := e.round(p.Round)
		switch p.Step {
		case 1:
			if !rd.bvalRecv[p.Value].Add(m.From) {
				return
			}
		case 2:
			if !rd.auxSeen.Add(m.From) {
				return
			}
			if p.Value == 1 {
				rd.auxOne.Add(m.From)
			}
		default:
			return
		}
		e.advance(ctx, rd)
	case Conf:
		if p.Mask == 0 || p.Mask > 3 {
			return
		}
		rd := e.round(p.Round)
		if !rd.confSeen.Add(m.From) {
			return
		}
		if p.Mask&1 != 0 {
			rd.confB0.Add(m.From)
		}
		if p.Mask&2 != 0 {
			rd.confB1.Add(m.From)
		}
		e.advance(ctx, rd)
	case Decide:
		if p.Value > 1 {
			return
		}
		if !e.decSeen.Add(m.From) {
			return
		}
		if p.Value == 1 {
			e.decOne.Add(m.From)
		}
		e.checkDecideQuorum(ctx)
	}
}

// OnCoin receives the common-coin output for a round. A prefix round's
// coin is already fixed: whatever a coin engine reports for it (only a
// Byzantine-driven flip could) is ignored.
func (e *Engine) OnCoin(ctx sim.Context, r uint64, bit int) {
	if _, known := e.prefixCoin(r); known {
		return
	}
	rd := e.round(r)
	if rd.coinKnown {
		return
	}
	rd.coinKnown = true
	rd.coinVal = bit
	e.advance(ctx, rd)
}

// advance runs the enabled steps of a round.
func (e *Engine) advance(ctx sim.Context, rd *round) {
	if e.halted || !e.started {
		return
	}
	n, t := ctx.N(), ctx.T()

	// BV-broadcast relay and bin_values admission.
	for v := uint8(0); v <= 1; v++ {
		c := rd.bvalRecv[v].Count()
		if c >= t+1 && rd.entered {
			e.sendBVal(ctx, rd, v)
		}
		if c >= 2*t+1 {
			rd.bin[v] = true
		}
	}

	// Only the process's current round drives AUX/CONF/coin.
	if !rd.entered || rd.r != e.current {
		return
	}

	// AUX: broadcast one bin value.
	if !rd.auxSent && (rd.bin[0] || rd.bin[1]) {
		rd.auxSent = true
		w := uint8(0)
		if !rd.bin[0] {
			w = 1
		}
		e.sendAll(ctx, Vote{Step: 2, Round: rd.r, Value: w})
	}

	// Collect n−t AUX values inside bin_values.
	if rd.auxSent && !rd.confSent {
		count := 0
		var mask uint8
		c1 := rd.auxOne.Count()
		c0 := rd.auxSeen.Count() - c1
		if rd.bin[0] && c0 > 0 {
			count += c0
			mask |= 1
		}
		if rd.bin[1] && c1 > 0 {
			count += c1
			mask |= 2
		}
		if count >= n-t && mask != 0 {
			rd.confSent = true
			rd.confMask = mask
			e.sendAll(ctx, Conf{Round: rd.r, Mask: mask})
		}
	}

	// Collect n−t CONF sets inside bin_values, then ask for the coin — or
	// take it from the prefix, invoking nothing.
	if rd.confSent && !rd.coinAsked {
		count := 0
		var union uint8
		rd.confSeen.ForEach(func(p sim.ProcID) {
			var mask uint8
			if rd.confB0.Has(p) {
				mask |= 1
			}
			if rd.confB1.Has(p) {
				mask |= 2
			}
			if e.maskInBin(rd, mask) {
				count++
				union |= mask
			}
		})
		if count >= n-t {
			rd.coinAsked = true
			rd.confMask = union
			if c, known := e.prefixCoin(rd.r); known {
				rd.coinKnown, rd.coinVal = true, int(c)
			} else {
				e.coin.Start(ctx, rd.r)
			}
		}
	}

	// Coin arrived: update estimate, maybe decide, move on.
	if rd.coinAsked && rd.coinKnown && !rd.finished {
		rd.finished = true
		c := uint8(rd.coinVal)
		switch rd.confMask {
		case 1, 2:
			v := rd.confMask >> 1 // mask 1 -> value 0, mask 2 -> value 1
			e.est = v
			if v == c {
				e.decide(ctx, v)
			}
		default:
			e.est = c
		}
		if e.decided {
			e.est = e.decision
		}
		e.enter(ctx, rd.r+1)
	}
}

func (e *Engine) maskInBin(rd *round, mask uint8) bool {
	if mask&1 != 0 && !rd.bin[0] {
		return false
	}
	if mask&2 != 0 && !rd.bin[1] {
		return false
	}
	return true
}

func (e *Engine) decide(ctx sim.Context, v uint8) {
	if e.decided {
		return
	}
	e.decided = true
	e.decision = v
	if !e.decSent {
		e.decSent = true
		e.sendAll(ctx, Decide{Value: v})
	}
	if e.onDecide != nil {
		e.onDecide(ctx, int(v))
	}
	e.checkDecideQuorum(ctx)
}

// checkDecideQuorum implements the DECIDE amplification and halting
// rules: t+1 matching DECIDEs decide; n−t allow halting.
func (e *Engine) checkDecideQuorum(ctx sim.Context) {
	counts := [2]int{}
	counts[1] = e.decOne.Count()
	counts[0] = e.decSeen.Count() - counts[1]
	for v := uint8(0); v <= 1; v++ {
		if counts[v] >= ctx.T()+1 && !e.decided {
			e.decide(ctx, v)
		}
		if counts[v] >= ctx.N()-ctx.T() && e.decided && e.decision == v {
			e.halted = true
		}
	}
}
