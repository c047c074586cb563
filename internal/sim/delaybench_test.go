package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedDelayHeap is the previous container/heap-based implementation of
// the DelayScheduler queue, kept here as the benchmark baseline: every
// Push and Pop boxes a delayItem into an interface{}, costing one heap
// allocation each on the per-message hot path.
type boxedDelayHeap []delayItem

func (h boxedDelayHeap) Len() int { return len(h) }
func (h boxedDelayHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedDelayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedDelayHeap) Push(x interface{}) { *h = append(*h, x.(delayItem)) }
func (h *boxedDelayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = delayItem{}
	*h = old[:n-1]
	return it
}

type boxedDelayScheduler struct {
	rng  *rand.Rand
	dist DelayDist
	h    boxedDelayHeap
}

func (s *boxedDelayScheduler) Enqueue(m Message, now int64) {
	heap.Push(&s.h, delayItem{m: m, at: now + 1 + s.dist.Draw(s.rng), seq: m.Seq})
}

func (s *boxedDelayScheduler) Next(_ int64) (Message, int64, bool) {
	if s.h.Len() == 0 {
		return Message{}, 0, false
	}
	it := heap.Pop(&s.h).(delayItem)
	return it.m, it.at, true
}

func (s *boxedDelayScheduler) Len() int { return s.h.Len() }

// parityPayload is a payload whose kind and size are chosen by the
// caller.
type parityPayload struct {
	kind string
	size int
}

func (p parityPayload) Kind() string { return p.kind }
func (p parityPayload) Size() int    { return p.size }

// benchScheduler is the subset of Scheduler the benchmark drives.
type benchScheduler interface {
	Enqueue(m Message, now int64)
	Next(now int64) (Message, int64, bool)
}

// runDelayBench measures a steady-state pop+push cycle over a queue of
// 1024 pending messages — the DelayScheduler's behavior in the middle
// of a large experiment.
func runDelayBench(b *testing.B, s benchScheduler) {
	b.Helper()
	const depth = 1024
	m := Message{From: 1, To: 2, Payload: parityPayload{kind: "bench", size: 8}}
	for i := 0; i < depth; i++ {
		m.Seq++
		s.Enqueue(m, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		popped, at, ok := s.Next(int64(i))
		if !ok {
			b.Fatal("scheduler drained unexpectedly")
		}
		popped.Seq = m.Seq + uint64(i) + 1
		s.Enqueue(popped, at)
	}
}

// BenchmarkDelayScheduler compares the pooled (free-list backing array,
// no interface boxing) scheduler against the old container/heap-based
// one. Expected: boxed ≈ 2 allocs/op (Push and Pop each box an item),
// pooled 0 allocs/op.
func BenchmarkDelayScheduler(b *testing.B) {
	dist := UniformDelay{Lo: 1, Hi: 64}
	b.Run("pooled", func(b *testing.B) {
		runDelayBench(b, NewDelayScheduler(1, dist))
	})
	b.Run("boxed", func(b *testing.B) {
		runDelayBench(b, &boxedDelayScheduler{rng: rand.New(rand.NewSource(1)), dist: dist})
	})
}
