package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call the harness made into the system (or one
// harness phase enclosing such calls). Parent is the id of the span
// that was open when this one began, 0 at the top level.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartUs/EndUs are microseconds since the log was created.
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
}

// spanLog records benchmark-side spans in memory; they are summarised
// (and optionally written out) when the run ends. A nil log records
// nothing, so untraced passes pay one nil check per call site. Spans
// are only opened from the workload's driving goroutine, so the open
// stack needs no lock.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans of the currently open spans
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// spanRef closes one span.
type spanRef struct {
	log *spanLog
	idx int
}

func (l *spanLog) begin(name string) spanRef {
	if l == nil {
		return spanRef{}
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUs: time.Since(l.origin).Microseconds(),
	})
	idx := len(l.spans) - 1
	l.open = append(l.open, idx)
	return spanRef{log: l, idx: idx}
}

func (r spanRef) end() {
	if r.log == nil {
		return
	}
	r.log.spans[r.idx].EndUs = time.Since(r.log.origin).Microseconds()
	// Spans close innermost-first; drop this one from the open stack.
	for i := len(r.log.open) - 1; i >= 0; i-- {
		if r.log.open[i] == r.idx {
			r.log.open = append(r.log.open[:i], r.log.open[i+1:]...)
			break
		}
	}
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Name     string
	Count    int
	TotalUs  int64 // wall time inside spans of this name
	SelfUs   int64 // TotalUs minus the time covered by child spans
	MedianUs float64
}

// summarize folds the log by name. Self time is a span's duration minus
// its direct children's, so nested harness phases are not double
// counted.
func (l *spanLog) summarize() []spanSummary {
	if l == nil {
		return nil
	}
	childUs := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			childUs[s.Parent] += s.EndUs - s.StartUs
		}
	}
	byName := make(map[string]*spanSummary)
	durs := make(map[string][]float64)
	for _, s := range l.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndUs - s.StartUs
		sum.Count++
		sum.TotalUs += d
		sum.SelfUs += d - childUs[s.ID]
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.MedianUs = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// medianUs returns the median duration of the spans called name, 0 when
// none were recorded.
func (l *spanLog) medianUs(name string) float64 {
	for _, s := range l.summarize() {
		if s.Name == name {
			return s.MedianUs
		}
	}
	return 0
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
