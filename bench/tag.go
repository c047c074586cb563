package main

import (
	"encoding/binary"
	"hash/maphash"
	"math/rand"
)

// Every value the harness submits starts with a 16-byte tag naming the
// submitting node and that node's submission counter, followed by
// seed-derived filler. The tag is how a decision on the submitting
// node is matched back to the submission it completes (for latency) and
// how a decided value is checked byte-for-byte against what went in.
const tagBytes = 16

// valueTag identifies one submission.
type valueTag struct {
	Node int
	Seq  uint64
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// makeValue builds a size-byte tagged value (size is raised to the tag
// length if smaller); the filler after the tag is drawn from rnd.
func makeValue(tag valueTag, size int, rnd *rand.Rand) []byte {
	if size < tagBytes {
		size = tagBytes
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v[0:8], uint64(tag.Node))
	binary.BigEndian.PutUint64(v[8:16], tag.Seq)
	rnd.Read(v[tagBytes:])
	return v
}

// parseTag reads the tag back; ok is false for a value too short to
// carry one (an empty proposal of a session joined on peer traffic).
func parseTag(v []byte) (tag valueTag, ok bool) {
	if len(v) < tagBytes {
		return valueTag{}, false
	}
	return valueTag{
		Node: int(binary.BigEndian.Uint64(v[0:8])),
		Seq:  binary.BigEndian.Uint64(v[8:16]),
	}, true
}

// digest is what the harness keeps of a value instead of the value: a
// 64 KiB proposal is decided on every node, so retaining the bytes for
// an end-of-run comparison would hold hundreds of megabytes live and
// distort heap_live_mb. Length plus a 64-bit keyed hash of all bytes
// detects any flipped byte with probability 1 − 2⁻⁶⁴.
type digest struct {
	Len int
	Sum uint64
}

var digestSeed = maphash.MakeSeed()

func digestOf(v []byte) digest {
	return digest{Len: len(v), Sum: maphash.Bytes(digestSeed, v)}
}

// ledger remembers every submission's digest and matches decided
// values against it.
type ledger struct {
	sent map[valueTag]digest
}

func newLedger() *ledger { return &ledger{sent: make(map[valueTag]digest)} }

func (l *ledger) record(tag valueTag, v []byte) { l.sent[tag] = digestOf(v) }

// matchResult classifies one decided member value.
type matchResult int

const (
	// matchEmpty: a zero-length proposal (the member joined the session
	// with nothing queued) — legitimate, carries no submission.
	matchEmpty matchResult = iota
	// matchOK: tagged by the member that proposed it and byte-equal to
	// the submission with that tag.
	matchOK
	// matchBad: anything else — untagged bytes, a tag naming another
	// node or an unknown submission, or bytes that differ from what was
	// submitted. A contract violation.
	matchBad
)

// match checks the value member proposed in some decision.
func (l *ledger) match(member int, got digest, tag valueTag, tagged bool) matchResult {
	if got.Len == 0 {
		return matchEmpty
	}
	if !tagged || tag.Node != member {
		return matchBad
	}
	want, ok := l.sent[tag]
	if !ok || want != got {
		return matchBad
	}
	return matchOK
}
