package core

import (
	"svssba/internal/aba"
	"svssba/internal/coin"
	"svssba/internal/mwsvss"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/svss"
)

// AttachMWSVSS creates a standalone MW-SVSS engine hosted on n and wires
// its direct-message, broadcast and observer routes. Use NewStack for the
// full protocol stack.
func AttachMWSVSS(n *Node, cb mwsvss.Callbacks) *mwsvss.Engine {
	eng := mwsvss.New(n, cb)
	for _, kind := range []string{
		mwsvss.KindDealVals,
		mwsvss.KindDealPoly,
		mwsvss.KindDealMod,
		mwsvss.KindEcho,
		mwsvss.KindModValue,
	} {
		n.HandleDirect(kind, eng.OnMessage)
	}
	n.HandleBroadcast(proto.ProtoMW, eng.OnBroadcast)
	n.ObserveBroadcast(proto.ProtoMW, eng.ObserveBroadcast)
	return eng
}

// SVSSConsumer receives completion events for SVSS sessions of one kind.
// ReconComplete fires once per reconstructed batch slot (slot 0 for
// classic single-secret sessions).
type SVSSConsumer struct {
	ShareComplete func(ctx sim.Context, sid proto.SessionID)
	ReconComplete func(ctx sim.Context, sid proto.SessionID, slot int, out svss.Output)
}

// MWConsumer receives completion events for standalone (KindMW) MW-SVSS
// sessions, per reconstructed batch slot.
type MWConsumer struct {
	ShareComplete func(ctx sim.Context, id proto.MWID)
	ReconComplete func(ctx sim.Context, id proto.MWID, slot int, out mwsvss.Output)
}

// Stack is the full per-process protocol stack of the paper: Node (RB +
// DMM + routing), the MW-SVSS engine, and the SVSS engine. The coin and
// agreement layers attach on top via ConsumeSVSS.
type Stack struct {
	Node *Node
	MW   *mwsvss.Engine
	SVSS *svss.Engine
	Coin *coin.Engine
	ABA  *aba.Engine

	mwConsumer    MWConsumer
	svssConsumers map[proto.SessionKind]SVSSConsumer
	onDecide      func(ctx sim.Context, value int)
	onCoin        func(ctx sim.Context, round uint64, bit int)
	hooks         *TraceHooks
}

// TraceHooks observes protocol round transitions across the stack.
// All hooks are optional (nil fields are skipped) and observation-only:
// they must not send, and they run synchronously on the delivery path,
// so they must be cheap. With no hooks installed every call site pays a
// single nil check — the stack's behavior and message schedule are
// identical either way (pinned by the obs parity test).
type TraceHooks struct {
	// RBAccept fires per logically accepted broadcast (per bundle
	// item), before DMM filtering and routing.
	RBAccept func(origin sim.ProcID, tag proto.Tag, size int)
	// MWShare fires when an MW-SVSS sharing completes (any kind,
	// including the SVSS-embedded sessions).
	MWShare func(id proto.MWID)
	// MWRecon fires when an MW-SVSS reconstruction completes.
	MWRecon func(id proto.MWID)
	// Coin fires when a common-coin flip resolves locally.
	Coin func(round uint64, bit int)
	// ABARound fires when the agreement engine enters a round.
	ABARound func(round uint64)
	// Decide fires on the local agreement decision.
	Decide func(value int)
}

// SetTraceHooks installs (or, with nil, removes) trace hooks on the
// stack. Call before the run starts.
func (st *Stack) SetTraceHooks(h *TraceHooks) {
	st.hooks = h
	if h == nil {
		st.Node.SetAcceptTrace(nil)
		st.ABA.OnRound(nil)
		return
	}
	st.Node.SetAcceptTrace(h.RBAccept)
	st.ABA.OnRound(h.ABARound)
}

// NewStack builds the protocol stack for process id. onShun may be nil.
func NewStack(id sim.ProcID, onShun func(detected sim.ProcID, session proto.MWID)) *Stack {
	st := &Stack{
		Node:          NewNode(id, onShun),
		svssConsumers: make(map[proto.SessionKind]SVSSConsumer),
	}

	st.MW = AttachMWSVSS(st.Node, mwsvss.Callbacks{
		ShareComplete: func(ctx sim.Context, mid proto.MWID) {
			if st.hooks != nil && st.hooks.MWShare != nil {
				st.hooks.MWShare(mid)
			}
			if mid.Session.Kind == proto.KindMW {
				if st.mwConsumer.ShareComplete != nil {
					st.mwConsumer.ShareComplete(ctx, mid)
				}
				return
			}
			st.SVSS.OnMWShareComplete(ctx, mid)
		},
		ReconstructComplete: func(ctx sim.Context, mid proto.MWID, slot int, out mwsvss.Output) {
			if st.hooks != nil && st.hooks.MWRecon != nil {
				st.hooks.MWRecon(mid)
			}
			if mid.Session.Kind == proto.KindMW {
				if st.mwConsumer.ReconComplete != nil {
					st.mwConsumer.ReconComplete(ctx, mid, slot, out)
				}
				return
			}
			st.SVSS.OnMWReconComplete(ctx, mid, slot, out)
		},
	})

	st.SVSS = svss.New(st.Node, st.MW, svss.Callbacks{
		ShareComplete: func(ctx sim.Context, sid proto.SessionID) {
			if c, ok := st.svssConsumers[sid.Kind]; ok && c.ShareComplete != nil {
				c.ShareComplete(ctx, sid)
			}
		},
		ReconstructComplete: func(ctx sim.Context, sid proto.SessionID, slot int, out svss.Output) {
			if c, ok := st.svssConsumers[sid.Kind]; ok && c.ReconComplete != nil {
				c.ReconComplete(ctx, sid, slot, out)
			}
		},
	})
	st.Node.HandleDirect(svss.KindDeal, st.SVSS.OnMessage)
	st.Node.HandleBroadcast(proto.ProtoSVSS, st.SVSS.OnBroadcast)

	// Common coin (§5) over SVSS, and binary agreement over the coin.
	st.Coin = coin.New(st.Node, st.SVSS, func(ctx sim.Context, round uint64, bit int) {
		if st.hooks != nil && st.hooks.Coin != nil {
			st.hooks.Coin(round, bit)
		}
		if st.onCoin != nil {
			st.onCoin(ctx, round, bit)
		}
		st.ABA.OnCoin(ctx, round, bit)
	})
	st.ABA = aba.New(id, st.Coin, func(ctx sim.Context, v int) {
		if st.hooks != nil && st.hooks.Decide != nil {
			st.hooks.Decide(v)
		}
		if st.onDecide != nil {
			st.onDecide(ctx, v)
		}
	})
	st.Node.HandleBroadcast(proto.ProtoCoin, st.Coin.OnBroadcast)
	st.Node.HandleBroadcast(proto.ProtoGather, st.Coin.Gather().OnBroadcast)
	st.ConsumeSVSS(proto.KindCoin, SVSSConsumer{
		ShareComplete: st.Coin.OnSVSSShareComplete,
		ReconComplete: st.Coin.OnSVSSReconComplete,
	})
	for _, kind := range []string{aba.KindBVal, aba.KindAux, aba.KindConf, aba.KindDecide} {
		st.Node.HandleDirect(kind, st.ABA.OnMessage)
	}
	return st
}

// OnDecide registers an observer for the local agreement decision.
func (st *Stack) OnDecide(fn func(ctx sim.Context, value int)) { st.onDecide = fn }

// OnCoin registers an observer for local coin outputs.
func (st *Stack) OnCoin(fn func(ctx sim.Context, round uint64, bit int)) { st.onCoin = fn }

// NewCodec returns a codec covering every protocol message in the stack
// (used by the live runtime and the codec round-trip tests).
func NewCodec() *proto.Codec {
	c := proto.NewCodec()
	rb.RegisterCodec(c)
	mwsvss.RegisterCodec(c)
	svss.RegisterCodec(c)
	aba.RegisterCodec(c)
	proto.RegisterPackCodec(c)
	proto.RegisterScopedCodec(c)
	return c
}

// StateCounts is a snapshot of the stack's live protocol state: per
// engine, the number of live instances and (where slab-allocated) the
// slab's high-water slot count. Retirement tests assert these return
// to baseline; operators can watch them on long-lived nodes.
type StateCounts struct {
	RBInstances, RBSlab   int
	MWInstances, MWSlab   int
	SVSSSessions, SVSSlab int
	GatherRounds          int
	ABARounds             int
	DMMPending, DMMParked int

	// Cumulative creation counters (never reset, unlike the live counts
	// above): how many instances each layer ever opened. The denominators
	// of the per-instance message-complexity report.
	RBCreated, MWCreated, SVSSCreated uint64
}

// Add accumulates o into c (used to sum counts across the scoped
// stacks of a service-mode node).
func (c *StateCounts) Add(o StateCounts) {
	c.RBInstances += o.RBInstances
	c.RBSlab += o.RBSlab
	c.MWInstances += o.MWInstances
	c.MWSlab += o.MWSlab
	c.SVSSSessions += o.SVSSSessions
	c.SVSSlab += o.SVSSlab
	c.GatherRounds += o.GatherRounds
	c.ABARounds += o.ABARounds
	c.DMMPending += o.DMMPending
	c.DMMParked += o.DMMParked
	c.RBCreated += o.RBCreated
	c.MWCreated += o.MWCreated
	c.SVSSCreated += o.SVSSCreated
}

// Total sums the live-instance counts (slab capacities excluded).
func (c StateCounts) Total() int {
	return c.RBInstances + c.MWInstances + c.SVSSSessions +
		c.GatherRounds + c.ABARounds + c.DMMPending + c.DMMParked
}

// StateCounts snapshots the stack's live protocol state.
func (st *Stack) StateCounts() StateCounts {
	rb := st.Node.RB()
	return StateCounts{
		RBInstances: rb.Live(), RBSlab: rb.SlabCap(),
		MWInstances: st.MW.Live(), MWSlab: st.MW.SlabCap(),
		SVSSSessions: st.SVSS.Live(), SVSSlab: st.SVSS.SlabCap(),
		GatherRounds: st.Coin.Gather().Rounds(),
		ABARounds:    st.ABA.Rounds(),
		DMMPending:   st.Node.DMM().PendingCount(),
		DMMParked:    st.Node.DMM().ParkedCount(),
		RBCreated:    rb.Created(),
		MWCreated:    st.MW.Created(),
		SVSSCreated:  st.SVSS.Created(),
	}
}

// Retire releases the stack's interned ids, instance slabs and round
// state across every layer — RB, MW-SVSS, SVSS, coin, gather, ABA
// vote records and the DMM — keeping only the agreement decision, and
// gates further deliveries at the node.
//
// Safe only once the local agreement halted (ABA received n−t matching
// DECIDEs): by then at least n−2t ≥ t+1 honest processes have decided
// and broadcast DECIDE, so every honest process decides through the
// DECIDE amplification path without needing anything further from this
// one. The deterministic simulator never calls this (runs there are
// pure functions of the seed and stop at the decision); the node
// runtime uses it to keep long-lived cluster processes at a bounded
// footprint.
func (st *Stack) Retire() {
	st.Node.Retire()
	st.MW.Reset()
	st.SVSS.Reset()
	st.Coin.Reset()
	st.ABA.Retire()
}

// ConsumeSVSS routes completion events of SVSS sessions of the given
// kind (replacing any previous consumer for that kind).
func (st *Stack) ConsumeSVSS(kind proto.SessionKind, c SVSSConsumer) {
	st.svssConsumers[kind] = c
}

// ConsumeMW routes completion events of standalone MW-SVSS sessions.
func (st *Stack) ConsumeMW(c MWConsumer) { st.mwConsumer = c }
