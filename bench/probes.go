package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"svssba"
	"svssba/internal/core"
	"svssba/internal/dmm"
	"svssba/internal/field"
	"svssba/internal/mwsvss"
	"svssba/internal/obs"
	"svssba/internal/poly"
	"svssba/internal/proto"
	"svssba/internal/rb"
	"svssba/internal/sim"
	"svssba/internal/testutil"
	"svssba/internal/transport"
	"svssba/internal/wrb"
)

// Layer probes time one exported function of one layer on a fixed
// input for a fixed number of iterations, and report the median of
// probeReps repetitions. They are the per-layer numbers that do not
// depend on a workload: the same call in every traced run.
const probeReps = 5

// probe is one layer probe. run returns the metric's value for one
// repetition.
type probe struct {
	name string
	// reps overrides probeReps for the one probe (a 4 s simulator round,
	// run once) whose five repetitions would cost as much as the workload.
	reps int
	run  func() (float64, error)
}

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink uint64

// probeCtx is a sim.Context that discards sends: handler probes measure
// the state transition, not the send path.
type probeCtx struct {
	n, t int
	rnd  *rand.Rand
}

func (c probeCtx) Send(sim.ProcID, sim.Payload) {}
func (c probeCtx) N() int                       { return c.n }
func (c probeCtx) T() int                       { return c.t }
func (c probeCtx) Now() int64                   { return 0 }
func (c probeCtx) Rand() *rand.Rand             { return c.rnd }

// probeHost is the minimal mwsvss.Host.
type probeHost struct {
	self sim.ProcID
	d    *dmm.DMM
}

func (h *probeHost) Self() sim.ProcID                         { return h.self }
func (h *probeHost) Broadcast(sim.Context, proto.Tag, []byte) {}
func (h *probeHost) DMM() *dmm.DMM                            { return h.d }

// perOp times iters calls of fn and returns nanoseconds per call.
func perOp(iters int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

var probeTag = proto.Tag{Proto: proto.ProtoRB, Step: 1, A: 7}

// probeFrame is a representative outbox flush: eight same-kind RB
// echoes behind one group header plus a trailing singleton.
func probeFrame() []sim.Payload {
	ps := make([]sim.Payload, 0, 9)
	for i := 0; i < 8; i++ {
		ps = append(ps, rb.Msg{Origin: sim.ProcID(i%4 + 1), Tag: probeTag, Value: []byte("0123456789abcdef")})
	}
	return append(ps, rb.Msg{Origin: 1, Tag: probeTag, Value: []byte("tail")})
}

func layerProbes(smoke bool) []probe {
	// scale shrinks iteration counts for the -check smoke.
	scale := func(n int) int {
		if smoke {
			return n/64 + 1
		}
		return n
	}
	codec := core.NewCodec()
	msg := rb.Msg{Origin: 2, Tag: probeTag, Value: []byte("0123456789abcdef")}

	return []probe{
		{name: "field.mul_ns", run: func() (float64, error) {
			x, y := field.New(0x1234567), field.New(0x89abcdef1)
			ns := perOp(scale(1<<22), func(int) { x = x.Mul(y) })
			probeSink += x.Uint64()
			return ns, nil
		}},
		{name: "field.inv_ns", run: func() (float64, error) {
			x := field.New(0x1234567)
			ns := perOp(scale(1<<15), func(int) { x = x.Inv().Add(field.New(3)) })
			probeSink += x.Uint64()
			return ns, nil
		}},
		{name: "poly.interpolate_t2_ns", run: func() (float64, error) {
			// Degree t=2 (the n=7 sharing polynomial) through t+1 points.
			p := poly.NewRandom(rand.New(rand.NewSource(1)), 2, field.New(42))
			pts := make([]poly.Point, 3)
			for i := range pts {
				x := field.New(uint64(i + 1))
				pts[i] = poly.Point{X: x, Y: p.Eval(x)}
			}
			var err error
			ns := perOp(scale(1<<16), func(int) {
				q, e := poly.Interpolate(pts)
				if e != nil {
					err = e
				}
				probeSink += q.Secret().Uint64()
			})
			return ns, err
		}},
		{name: "proto.encode_ns_per_payload", run: func() (float64, error) {
			var buf []byte
			var err error
			ns := perOp(scale(1<<18), func(int) {
				enc, e := codec.AppendEncode(buf[:0], msg)
				if e != nil {
					err = e
				}
				buf = enc
			})
			return ns, err
		}},
		{name: "proto.decode_ns_per_payload", run: func() (float64, error) {
			enc, err := codec.Encode(msg)
			if err != nil {
				return 0, err
			}
			ns := perOp(scale(1<<18), func(int) {
				p, e := codec.Decode(enc)
				if e != nil {
					err = e
					return
				}
				probeSink += uint64(p.Size())
			})
			return ns, err
		}},
		{name: "proto.batch_encode_ns_per_frame", run: func() (float64, error) {
			ps := probeFrame()
			var buf []byte
			var err error
			ns := perOp(scale(1<<16), func(int) {
				enc, e := codec.AppendEncodeBatch(buf[:0], ps)
				if e != nil {
					err = e
				}
				buf = enc
			})
			return ns, err
		}},
		{name: "proto.scoped_shallow_decode_ns", run: func() (float64, error) {
			enc, err := codec.Encode(proto.Scoped{Scope: 0x1234, Inner: msg})
			if err != nil {
				return 0, err
			}
			ns := perOp(scale(1<<18), func(int) {
				p, e := codec.Decode(enc)
				if e != nil {
					err = e
					return
				}
				probeSink += p.(proto.Scoped).Scope
			})
			return ns, err
		}},
		{name: "proto.allocs_per_frame", run: func() (float64, error) {
			// Heap allocations of one frame's wire round trip: encode the
			// nine-payload batch into a warm buffer, decode it back.
			ps := probeFrame()
			buf, err := codec.EncodeBatch(ps)
			if err != nil {
				return 0, err
			}
			iters := scale(1 << 14)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				enc, e := codec.AppendEncodeBatch(buf[:0], ps)
				if e != nil {
					return 0, e
				}
				buf = enc
				out, e := codec.DecodeBatch(buf)
				if e != nil {
					return 0, e
				}
				probeSink += uint64(len(out))
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / float64(iters), nil
		}},
		{name: "rb.handle_ns", run: func() (float64, error) {
			// A fresh echo lands in a live instance below every threshold;
			// the engine resets when the tag window recycles.
			const n, t, w = 7, 2, 1024
			var ctx sim.Context = probeCtx{n: n, t: t, rnd: rand.New(rand.NewSource(1))}
			e := rb.New(1, nil)
			msgs := make([]sim.Message, 2*w)
			for i := range msgs {
				tag := proto.Tag{Proto: proto.ProtoRB, Step: 1, A: uint32(i / 2)}
				msgs[i] = sim.Message{From: sim.ProcID(2 + i%2), To: 1, Payload: rb.Msg{Origin: 2, Tag: tag, Value: []byte("echo-value")}}
			}
			for i := range msgs {
				e.Handle(ctx, msgs[i])
			}
			e.Reset()
			return perOp(scale(1<<20), func(i int) {
				j := i % len(msgs)
				if j == 0 && i > 0 {
					e.Reset()
				}
				e.Handle(ctx, msgs[j])
			}), nil
		}},
		{name: "rb.broadcast_64k_us", run: func() (float64, error) {
			// One reliable broadcast of a 64 KiB value to acceptance by
			// all of n=4, on the simulator (every echo carries the value).
			value := make([]byte, 64<<10)
			iters := scale(64)
			start := time.Now()
			for i := 0; i < iters; i++ {
				accepted := 0
				nw := sim.NewNetwork(4, 1, int64(i))
				for p := 1; p <= 4; p++ {
					id := sim.ProcID(p)
					eng := rb.New(id, func(sim.Context, rb.Accept) { accepted++ })
					var onInit func(sim.Context)
					if id == 1 {
						onInit = func(ctx sim.Context) { eng.Broadcast(ctx, probeTag, value) }
					}
					h := testutil.NewNode(id, onInit, func(ctx sim.Context, m sim.Message) { eng.Handle(ctx, m) })
					if err := nw.Register(h); err != nil {
						return 0, err
					}
				}
				if _, err := nw.Run(1_000_000); err != nil {
					return 0, err
				}
				if accepted != 4 {
					return 0, fmt.Errorf("rb probe: %d of 4 accepted", accepted)
				}
			}
			return float64(time.Since(start).Microseconds()) / float64(iters), nil
		}},
		{name: "wrb.handle_ns", run: func() (float64, error) {
			const n, t, w = 7, 2, 1024
			var ctx sim.Context = probeCtx{n: n, t: t, rnd: rand.New(rand.NewSource(1))}
			e := wrb.New(1, nil)
			msgs := make([]sim.Message, 2*w)
			for i := range msgs {
				tag := proto.Tag{Proto: proto.ProtoRB, Step: 1, A: uint32(i / 2)}
				// Phase 2 is the type-2 echo (wrb.KindType2).
				msgs[i] = sim.Message{From: sim.ProcID(2 + i%2), To: 1, Payload: wrb.Msg{Origin: 2, Tag: tag, Phase: 2, Value: []byte("echo-value")}}
			}
			for i := range msgs {
				e.Handle(ctx, msgs[i])
			}
			e.Reset()
			return perOp(scale(1<<20), func(i int) {
				j := i % len(msgs)
				if j == 0 && i > 0 {
					e.Reset()
				}
				e.Handle(ctx, msgs[j])
			}), nil
		}},
		{name: "mwsvss.deliver_echo_ns", run: func() (float64, error) {
			// A share-phase Echo from a new sender lands in a warm
			// instance's value slice and the step guards re-evaluate.
			const n, t, w = 7, 2, 512
			host := &probeHost{self: 1, d: dmm.New(1, nil)}
			var ctx sim.Context = probeCtx{n: n, t: t, rnd: rand.New(rand.NewSource(1))}
			e := mwsvss.New(host, mwsvss.Callbacks{})
			msgs := make([]sim.Message, 2*w)
			for i := range msgs {
				id := proto.MWID{
					Session: proto.SessionID{Dealer: 2, Kind: proto.KindMW, Round: uint64(i / 2)},
					Key:     proto.MWKey{Dealer: 2, Moderator: 3},
				}
				msgs[i] = sim.Message{From: sim.ProcID(2 + i%2), To: 1, Payload: mwsvss.Echo{MW: id, Vals: []field.Element{field.New(uint64(i))}}}
			}
			for i := range msgs {
				e.OnMessage(ctx, msgs[i])
			}
			e.Reset()
			host.d.Reset()
			return perOp(scale(1<<19), func(i int) {
				j := i % len(msgs)
				if j == 0 && i > 0 {
					e.Reset()
					host.d.Reset()
				}
				e.OnMessage(ctx, msgs[j])
			}), nil
		}},
		{name: "svss.share_recon_n4_ms", run: func() (float64, error) {
			iters := scale(16)
			start := time.Now()
			for i := 0; i < iters; i++ {
				res, err := svssba.RunSVSS(svssba.SVSSConfig{N: 4, Seed: int64(i + 1), Secret: 42, Wire: "v2"})
				if err != nil {
					return 0, err
				}
				if res.TimedOut || len(res.Outputs) != 4 {
					return 0, fmt.Errorf("svss probe: %d of 4 reconstructed", len(res.Outputs))
				}
			}
			return float64(time.Since(start).Microseconds()) / 1e3 / float64(iters), nil
		}},
		{name: "coin.round_n4_ms", run: func() (float64, error) { return coinRoundMs(4, scale(4)) }},
		{name: "coin.round_n7_ms", reps: 1, run: func() (float64, error) { return coinRoundMs(7, 1) }},
		{name: "aba.ideal_coin_n4_ms", run: func() (float64, error) {
			// Voting and reliable broadcast without the coin machinery: the
			// agreement layer over an ideal common coin that never fails.
			iters := scale(64)
			start := time.Now()
			for i := 0; i < iters; i++ {
				res, err := svssba.Run(svssba.Config{N: 4, Seed: int64(i + 1), Protocol: svssba.ProtocolEpsCoin, Eps: 0})
				if err != nil {
					return 0, err
				}
				if msg := checkAgreement(res); msg != "" {
					return 0, fmt.Errorf("aba probe: %s", msg)
				}
			}
			return float64(time.Since(start).Microseconds()) / 1e3 / float64(iters), nil
		}},
		{name: "core.pack_roundtrip_ns", run: func() (float64, error) {
			// The wire-v2 direct pack: every payload one burst produced
			// for one destination, encoded and decoded as one message.
			pk := proto.Pack{Items: probeFrame()}
			var buf []byte
			var err error
			ns := perOp(scale(1<<15), func(int) {
				enc, e := codec.AppendEncode(buf[:0], pk)
				if e != nil {
					err = e
					return
				}
				buf = enc
				p, e := codec.Decode(buf)
				if e != nil {
					err = e
					return
				}
				probeSink += uint64(len(p.(proto.Pack).Items))
			})
			return ns, err
		}},
		{name: "transport.chan_rtt_us", run: func() (float64, error) {
			a, b, closeAll, err := chanPair()
			if err != nil {
				return 0, err
			}
			defer closeAll()
			return pingPongUs(a, b, scale(1<<14))
		}},
		{name: "transport.tcp_rtt_us", run: func() (float64, error) {
			a, b, closeAll, err := tcpPair()
			if err != nil {
				return 0, err
			}
			defer closeAll()
			return pingPongUs(a, b, scale(1<<12))
		}},
		{name: "transport.tcp_64k_mb_per_s", run: func() (float64, error) {
			a, b, closeAll, err := tcpPair()
			if err != nil {
				return 0, err
			}
			defer closeAll()
			return streamMBps(a, b, scale(1<<11), 64<<10)
		}},
		{name: "obs.record_ns", run: func() (float64, error) {
			tr := obs.NewTracer(1, 1<<12)
			return perOp(scale(1<<21), func(i int) {
				tr.Record(obs.KindCoin, uint64(i), 1, 2, 3, 4)
			}), nil
		}},
	}
}

func coinRoundMs(n, iters int) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		res, err := svssba.RunCoin(svssba.CoinConfig{N: n, Seed: int64(i + 1), Rounds: 1, Wire: "v2"})
		if err != nil {
			return 0, err
		}
		if res.TimedOut || len(res.RoundResults) != 1 {
			return 0, fmt.Errorf("coin probe n=%d: round did not complete", n)
		}
	}
	return float64(time.Since(start).Microseconds()) / 1e3 / float64(iters), nil
}

// chanPair returns two started endpoints of a two-node chan mesh.
func chanPair() (a, b transport.Transport, closeAll func(), err error) {
	mesh := transport.NewMesh(2)
	if a, err = mesh.Endpoint(1); err != nil {
		return nil, nil, nil, err
	}
	if b, err = mesh.Endpoint(2); err != nil {
		return nil, nil, nil, err
	}
	closeAll = func() { a.Close(); b.Close() }
	if err = a.Start(); err == nil {
		err = b.Start()
	}
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return a, b, closeAll, nil
}

// tcpPair returns two started, mutually addressed loopback endpoints.
func tcpPair() (a, b transport.Transport, closeAll func(), err error) {
	ta := transport.NewTCP(1, "127.0.0.1:0", nil)
	tb := transport.NewTCP(2, "127.0.0.1:0", nil)
	closeAll = func() { ta.Close(); tb.Close() }
	if err = ta.Start(); err == nil {
		err = tb.Start()
	}
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	addrs := map[sim.ProcID]string{1: ta.Addr(), 2: tb.Addr()}
	ta.SetPeers(addrs)
	tb.SetPeers(addrs)
	return ta, tb, closeAll, nil
}

const probeTimeout = 20 * time.Second

// pingPongUs bounces a 16-byte frame between a and b and returns the
// mean round trip in microseconds. The echo side runs in a goroutine
// that ends when b's inbox closes (closeAll) or the pings are done.
func pingPongUs(a, b transport.Transport, pings int) (float64, error) {
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for i := 0; i < pings; i++ {
			f, ok := <-b.Recv()
			if !ok {
				return
			}
			if b.Send(a.Self(), f.Data) != nil {
				return
			}
		}
	}()
	defer func() { <-echoDone }()
	timeout := time.NewTimer(probeTimeout)
	defer timeout.Stop()
	start := time.Now()
	for i := 0; i < pings; i++ {
		// A fresh buffer per send: the transport owns what it is handed.
		if err := a.Send(b.Self(), make([]byte, 16)); err != nil {
			b.Close() // unblock the echo goroutine
			return 0, err
		}
		select {
		case _, ok := <-a.Recv():
			if !ok {
				b.Close()
				return 0, fmt.Errorf("transport probe: inbox closed")
			}
		case <-timeout.C:
			b.Close()
			return 0, fmt.Errorf("transport probe: no echo within %v", probeTimeout)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(pings), nil
}

// streamMBps sends frames of size bytes one way and returns the
// receiver-side throughput in MB/s (first send to last receive).
func streamMBps(a, b transport.Transport, frames, size int) (float64, error) {
	timeout := time.NewTimer(probeTimeout)
	defer timeout.Stop()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := a.Send(b.Self(), make([]byte, size)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case _, ok := <-b.Recv():
			if !ok {
				return 0, fmt.Errorf("transport probe: inbox closed")
			}
		case <-timeout.C:
			return 0, fmt.Errorf("transport probe: %d of %d frames within %v", i, frames, probeTimeout)
		}
	}
	return float64(frames) * float64(size) / 1e6 / time.Since(start).Seconds(), nil
}

// runProbes runs every layer probe and stores the medians in values.
func runProbes(smoke bool, spans *spanLog, values map[string]float64) error {
	for _, pr := range layerProbes(smoke) {
		reps := probeReps
		if pr.reps > 0 {
			reps = pr.reps
		}
		if smoke {
			reps = 1
		}
		var xs []float64
		for r := 0; r < reps; r++ {
			sp := spans.begin("probe." + pr.name)
			v, err := pr.run()
			sp.end()
			if err != nil {
				return fmt.Errorf("probe %s: %w", pr.name, err)
			}
			xs = append(xs, v)
		}
		values[pr.name] = median(xs)
	}
	return nil
}
