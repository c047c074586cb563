package intern

import "bytes"

// valInline is the number of distinct values counted inline. Honest
// broadcast instances only ever see one value; a Byzantine dealer can
// produce a handful; anything past the threshold spills to a map.
const valInline = 3

// ValCounts tallies occurrences of small byte-string values — the
// dense replacement for the map[string]int echo-vote counters in the
// broadcast engines. Distinct values are expected to be very few
// (usually exactly one), so the first valInline live inline and are
// found by linear scan with no hashing and no per-increment
// allocation; only an equivocating sender who manufactures more
// distinct values than that pays for a spill map.
//
// Stored values are copied on first sight (once per distinct value per
// instance), so callers may pass views into transient buffers.
type ValCounts struct {
	n     int
	vals  [valInline][]byte
	cnts  [valInline]int
	spill map[string]int
}

// Incr counts one occurrence of v and returns v's new total.
func (c *ValCounts) Incr(v []byte) int {
	for i := 0; i < c.n; i++ {
		if bytes.Equal(c.vals[i], v) {
			c.cnts[i]++
			return c.cnts[i]
		}
	}
	if c.n < valInline {
		c.vals[c.n] = append([]byte(nil), v...)
		c.cnts[c.n] = 1
		c.n++
		return 1
	}
	if c.spill == nil {
		c.spill = make(map[string]int)
	}
	c.spill[string(v)]++
	return c.spill[string(v)]
}

// Stored returns the counter's own copy of v, a value it counts, for a
// caller that keeps v past the delivery; the counter must not count
// again before its Reset. A spilled value, of which the counter keeps
// no copy, is copied.
func (c *ValCounts) Stored(v []byte) []byte {
	for i := 0; i < c.n; i++ {
		if bytes.Equal(c.vals[i], v) {
			return c.vals[i]
		}
	}
	return append([]byte(nil), v...)
}

// Reset empties the counter and drops retained value copies.
func (c *ValCounts) Reset() {
	for i := 0; i < c.n; i++ {
		c.vals[i] = nil
		c.cnts[i] = 0
	}
	c.n = 0
	c.spill = nil
}
