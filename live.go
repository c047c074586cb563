package svssba

import "time"

// LiveConfig describes an agreement run on the live node runtime: one
// node.Node per process over the in-process channel transport, with
// randomized real delays, and every message round-tripped through the
// binary wire codec.
type LiveConfig struct {
	N, T   int
	Seed   int64
	Inputs []int
	// MaxDelay is the per-message delivery delay bound (default 2ms).
	MaxDelay time.Duration
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
}

// LiveResult reports a live run.
type LiveResult struct {
	Decisions map[int]int
	Agreed    bool
	Value     int
	// Messages counts logical payloads sent. A wire-v2 pack — every
	// direct payload one delivery burst produced for one peer — counts
	// as one message.
	Messages int64
	// Bytes sums those payloads' standalone encoded sizes (kind headers
	// included).
	Bytes   int64
	Elapsed time.Duration
}

// RunLive executes the paper's protocol on the live node runtime. It is
// a thin wrapper over RunCluster with the in-process channel transport
// and randomized link delays — the exact code path cmd/node runs over
// TCP sockets — and demonstrates that the event-driven protocol cores
// are runtime-agnostic: the same state machines run under real
// concurrency with encoded messages on the wire. Like every live node,
// each process runs wire v2 behind the coalescing outbox, so Messages
// counts a pack as one message (see LiveResult).
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	res, err := RunCluster(ClusterConfig{
		N:         cfg.N,
		T:         cfg.T,
		Seed:      cfg.Seed,
		Inputs:    cfg.Inputs,
		Transport: TransportChan,
		Delay:     cfg.MaxDelay,
		Timeout:   cfg.Timeout,
	})
	if err != nil {
		return nil, err
	}
	out := &LiveResult{
		Decisions: res.Decisions,
		Agreed:    res.Agreed,
		Value:     res.Value,
		Elapsed:   res.Elapsed,
	}
	for _, nd := range res.Nodes {
		out.Messages += nd.Sent
		out.Bytes += nd.SentBytes
	}
	return out, nil
}
