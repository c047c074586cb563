package main

import (
	"sort"

	"svssba/internal/acs"
	"svssba/internal/obs"
	"svssba/internal/proto"
)

// The phase split cuts each session's wall time at the tracer events a
// node already records (scope-open, rb-accept, coin, aba-round, decide,
// scope-retire). One (node, session) pair is one sample; every phase is
// the median over the pairs whose plane scope opened inside the timed
// window and retired before the pass ended.
//
//	open_to_proposal     plane scope-open → first ProtoACS rb-accept in
//	                     the plane scope (a proposal delivered; the first
//	                     agreement can start)
//	proposal_to_share    → the (n−t)-th ProtoSVSS rb-accept in the plane
//	                     scope (that many dealers announced their pooled
//	                     dealing's share sets: a coin can be flipped)
//	share_to_first_coin  → the session's first coin event
//	aba_round            aba-round(r) → aba-round(r+1) in one agreement
//	                     scope, r ≥ 2 (round 1 also waits for the dealing)
//	last_round_to_decide the last aba-round before decide → decide
//	decide_to_retire     decide → that agreement scope's scope-retire
//	coin_wait_share      Σ(first ProtoCoin/ProtoGather rb-accept after
//	                     aba-round(r) → coin(r)) ÷ Σ(aba-round(r) →
//	                     coin(r)) over every agreement round: the part of
//	                     a round after the coin layer's first broadcast of
//	                     that round was accepted. No event marks "CONF
//	                     done, coin invoked", so this is the closest pair
//	                     the tracer bounds; it under-counts by the time the
//	                     first coin broadcast spends in reliable broadcast.
type phaseSplit struct {
	openToProposal, proposalToShare, shareToFirstCoin []float64
	abaRound, lastRoundToDecide, decideToRetire       []float64
	coinWaitUs, roundUs                               float64
	coinEvents, fallbackCoinEvents                    int
	sessions                                          int
}

func usToMs(us int64) float64 { return float64(us) / 1e3 }

// add processes one node's events (oldest first). winLo/winHi
// bound the plane scope-open time (tracer microseconds) of the sessions
// sampled.
func (ps *phaseSplit) add(events []obs.Event, winLo, winHi int64) {
	type abaScope struct {
		rounds  []obs.Event // aba-round events in order
		coins   []obs.Event
		coinRB  []int64 // times of ProtoCoin/ProtoGather accepts
		decide  int64
		retire  int64
		decided bool
		retired bool
	}
	type sess struct {
		open, retire    int64
		opened, retired bool
		firstProposal   int64
		hasProposal     bool
		shareAccepts    []int64
		aba             map[int]*abaScope
		firstCoin       int64
		hasCoin         bool
	}
	sessions := make(map[uint64]*sess)
	get := func(sid uint64) *sess {
		s := sessions[sid]
		if s == nil {
			s = &sess{aba: make(map[int]*abaScope)}
			sessions[sid] = s
		}
		return s
	}
	for _, e := range events {
		sid, slot := acs.SplitScope(e.Scope)
		if sid == 0 {
			continue
		}
		s := get(sid)
		if slot == 0 {
			switch e.Kind {
			case obs.KindScopeOpen:
				s.open, s.opened = e.At, true
			case obs.KindScopeRetire:
				s.retire, s.retired = e.At, true
			case obs.KindRBAccept:
				switch uint8(e.A) {
				case proto.ProtoACS:
					if !s.hasProposal {
						s.firstProposal, s.hasProposal = e.At, true
					}
				case proto.ProtoSVSS:
					s.shareAccepts = append(s.shareAccepts, e.At)
				}
			}
			continue
		}
		a := s.aba[slot]
		if a == nil {
			a = &abaScope{}
			s.aba[slot] = a
		}
		switch e.Kind {
		case obs.KindABARound:
			a.rounds = append(a.rounds, e)
		case obs.KindCoin:
			a.coins = append(a.coins, e)
			if !s.hasCoin || e.At < s.firstCoin {
				s.firstCoin, s.hasCoin = e.At, true
			}
		case obs.KindDecide:
			if !a.decided {
				a.decide, a.decided = e.At, true
			}
		case obs.KindScopeRetire:
			a.retire, a.retired = e.At, true
		case obs.KindRBAccept:
			if p := uint8(e.A); p == proto.ProtoCoin || p == proto.ProtoGather {
				a.coinRB = append(a.coinRB, e.At)
			}
		}
	}

	for _, s := range sessions {
		if !s.opened || !s.retired || s.open < winLo || s.open >= winHi {
			continue
		}
		ps.sessions++
		if s.hasProposal {
			ps.openToProposal = append(ps.openToProposal, usToMs(s.firstProposal-s.open))
		}
		var share int64
		hasShare := len(s.shareAccepts) >= svcN-svcT
		if hasShare {
			share = s.shareAccepts[svcN-svcT-1]
			if s.hasProposal {
				ps.proposalToShare = append(ps.proposalToShare, usToMs(share-s.firstProposal))
			}
			if s.hasCoin {
				ps.shareToFirstCoin = append(ps.shareToFirstCoin, usToMs(s.firstCoin-share))
			}
		}
		for _, a := range s.aba {
			for i := 1; i+1 < len(a.rounds); i++ {
				// rounds[i] is round i+1: r ≥ 2.
				ps.abaRound = append(ps.abaRound, usToMs(a.rounds[i+1].At-a.rounds[i].At))
			}
			if a.decided {
				// Last round entered at or before the decision.
				k := sort.Search(len(a.rounds), func(i int) bool { return a.rounds[i].At > a.decide }) - 1
				if k >= 0 {
					ps.lastRoundToDecide = append(ps.lastRoundToDecide, usToMs(a.decide-a.rounds[k].At))
				}
				if a.retired {
					ps.decideToRetire = append(ps.decideToRetire, usToMs(a.retire-a.decide))
				}
			}
			for _, c := range a.coins {
				ps.coinEvents++
				if c.A > svcPoolRounds {
					ps.fallbackCoinEvents++
				}
				// The aba-round event of the coin's round.
				var entered int64 = -1
				for _, r := range a.rounds {
					if r.A == c.A {
						entered = r.At
						break
					}
				}
				if entered < 0 || c.At < entered {
					continue
				}
				ps.roundUs += float64(c.At - entered)
				// First coin-layer broadcast accepted inside the round.
				k := sort.Search(len(a.coinRB), func(i int) bool { return a.coinRB[i] >= entered })
				if k < len(a.coinRB) && a.coinRB[k] <= c.At {
					ps.coinWaitUs += float64(c.At - a.coinRB[k])
				}
			}
		}
	}
}

// metrics returns the phase metrics and the names of the phases no
// sample bounded (reported as 0 and listed in the report).
func (ps *phaseSplit) metrics() (map[string]float64, []string) {
	out := make(map[string]float64)
	var omitted []string
	put := func(name string, xs []float64) {
		if len(xs) == 0 {
			out[name] = 0
			omitted = append(omitted, name)
			return
		}
		out[name] = median(xs)
	}
	put("phase.open_to_proposal_ms", ps.openToProposal)
	put("phase.proposal_to_share_ms", ps.proposalToShare)
	put("phase.share_to_first_coin_ms", ps.shareToFirstCoin)
	put("phase.aba_round_ms", ps.abaRound)
	put("phase.last_round_to_decide_ms", ps.lastRoundToDecide)
	put("phase.decide_to_retire_ms", ps.decideToRetire)
	if ps.roundUs == 0 {
		omitted = append(omitted, "phase.coin_wait_share")
	}
	out["phase.coin_wait_share"] = ratio(ps.coinWaitUs, ps.roundUs)
	out["coinpool.fallback_round_share"] = ratio(float64(ps.fallbackCoinEvents), float64(ps.coinEvents))
	return out, omitted
}
