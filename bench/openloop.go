package main

import "time"

// openLoop is a fixed-rate arrival schedule: submission k is due at
// origin + k·period no matter how the system (or the generator) is
// doing. Latency is timed from the due time, so when a stall delays
// later submissions the wait it imposed on them is counted, and the
// generator's own lateness (actual send − due) is reported separately.
type openLoop struct {
	origin time.Time
	period time.Duration
	next   int
}

func newOpenLoop(origin time.Time, perSecond float64) *openLoop {
	return &openLoop{origin: origin, period: time.Duration(float64(time.Second) / perSecond)}
}

// due returns when submission k is scheduled.
func (o *openLoop) due(k int) time.Time {
	return o.origin.Add(time.Duration(k) * o.period)
}

// pop returns the next submission if it is due at now. After a stall
// every overdue submission pops in turn, each with its own original
// due time — the schedule never slides.
func (o *openLoop) pop(now time.Time) (k int, due time.Time, ok bool) {
	d := o.due(o.next)
	if now.Before(d) {
		return 0, time.Time{}, false
	}
	k = o.next
	o.next++
	return k, d, true
}

// wait returns how long to sleep from now until the next submission is
// due (zero when one is already overdue).
func (o *openLoop) wait(now time.Time) time.Duration {
	if d := o.due(o.next).Sub(now); d > 0 {
		return d
	}
	return 0
}
