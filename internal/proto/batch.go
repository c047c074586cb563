package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"svssba/internal/sim"
)

// Batch frame format. A batch frame packs many encoded payloads into one
// transport frame so that all traffic a process produces for one
// destination within one delivery step crosses the wire as a single
// physical message. The leading byte is BatchMagic, a reserved kind
// code no single-payload frame starts with, so receivers tell the two
// frame shapes apart from the first byte.
//
//	u8      BatchMagic (0xFF)
//	uvarint group count
//	per group:
//	  u8      kind code
//	  uvarint payload count
//	  per payload: uvarint body length ++ body
//
// A group holds a run of consecutive same-kind payloads with the kind
// code written once — this is the wire form of echo aggregation: one
// group carries the type-2/type-3 echoes of many concurrent broadcast
// tags and sessions. Bodies are the MarshalTo encoding without the
// per-payload kind code.
const BatchMagic = 0xFF

// ErrNotBatch is returned by DecodeBatch when the input does not start
// with BatchMagic.
var ErrNotBatch = errors.New("proto: not a batch frame")

// IsBatch reports whether b is a batch frame (starts with BatchMagic).
func IsBatch(b []byte) bool {
	return len(b) >= 1 && b[0] == BatchMagic
}

// AppendEncodeBatch appends a batch frame holding ps to dst and returns
// the extended buffer — the allocation-free variant of EncodeBatch for
// callers that own a reusable buffer. Runs of consecutive payloads with
// the same kind share one group (and one kind header). dst may be nil;
// ps must be non-empty.
func (c *Codec) AppendEncodeBatch(dst []byte, ps []sim.Payload) ([]byte, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("proto: empty batch")
	}
	groups, err := countGroups(ps)
	if err != nil {
		return nil, err
	}
	w := writerPool.Get().(*Writer)
	w.buf = dst
	w.U8(BatchMagic)
	w.Uvarint(uint64(groups))
	for i := 0; i < len(ps); {
		kind := ps[i].Kind()
		j := i
		for j < len(ps) && ps[j].Kind() == kind {
			j++
		}
		code, _ := KindCode(kind) // countGroups verified
		w.U8(code)
		w.Uvarint(uint64(j - i))
		for ; i < j; i++ {
			m := ps[i].(Marshaler) // countGroups verified
			w.Uvarint(uint64(ps[i].Size()))
			start := w.Len()
			m.MarshalTo(w)
			if w.Len()-start != ps[i].Size() {
				err = fmt.Errorf("proto: payload %q: Size()=%d but marshaled %d bytes",
					kind, ps[i].Size(), w.Len()-start)
			}
		}
	}
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// countGroups validates the payloads and returns the number of
// consecutive same-kind runs.
func countGroups(ps []sim.Payload) (int, error) {
	groups := 0
	last := ""
	for _, p := range ps {
		if _, ok := p.(Marshaler); !ok {
			return 0, fmt.Errorf("proto: payload %q does not implement Marshaler", p.Kind())
		}
		kind := p.Kind()
		if groups == 0 || kind != last {
			if _, ok := KindCode(kind); !ok {
				return 0, fmt.Errorf("proto: payload kind %q has no wire code", kind)
			}
			groups++
			last = kind
		}
	}
	return groups, nil
}

// EncodeBatch encodes ps as one batch frame in a single pre-sized
// allocation.
func (c *Codec) EncodeBatch(ps []sim.Payload) ([]byte, error) {
	size := 1 + binary.MaxVarintLen64
	for _, p := range ps {
		size += 1 + binary.MaxVarintLen64*2 + p.Size()
	}
	return c.AppendEncodeBatch(make([]byte, 0, size), ps)
}

// DecodeBatch decodes a batch frame into its payloads, in encoding
// order. Inputs that are not batch frames return ErrNotBatch; corrupt
// or truncated batches return a decode error and no payloads — callers
// discard such frames whole, so a Byzantine sender cannot smuggle
// prefix payloads past the frame-level integrity check.
func (c *Codec) DecodeBatch(b []byte) ([]sim.Payload, error) {
	if !IsBatch(b) {
		return nil, ErrNotBatch
	}
	r := getReader(b)
	defer putReader(r)
	r.U8() // magic
	groups := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("proto: batch header: %w", r.Err())
	}
	// One pooled reader serves every payload body: Reset repositions it
	// per body, so a thousand-payload batch costs zero Reader headers.
	pr := getReader(nil)
	defer putReader(pr)
	var out []sim.Payload
	for g := uint64(0); g < groups; g++ {
		code := r.U8()
		if r.Err() != nil {
			return nil, fmt.Errorf("proto: batch group %d kind: %w", g, r.Err())
		}
		kind := kindName(code)
		dec := c.decoders[code]
		if dec == nil {
			return nil, fmt.Errorf("proto: no decoder for kind %s", kind)
		}
		count := r.Uvarint()
		if r.Err() != nil || count > uint64(r.Remaining()) {
			// Each payload costs at least its 1-byte length prefix, so a
			// count beyond Remaining is corrupt regardless of contents.
			return nil, fmt.Errorf("proto: batch group %s count: %w", kind, ErrShortBuffer)
		}
		for i := uint64(0); i < count; i++ {
			bl := r.Uvarint()
			if r.Err() != nil || bl > uint64(r.Remaining()) {
				return nil, fmt.Errorf("proto: batch payload %s length: %w", kind, ErrShortBuffer)
			}
			pr.Reset(r.take(int(bl)))
			p, err := dec(pr)
			if err != nil {
				return nil, fmt.Errorf("proto: batch decode %s: %w", kind, err)
			}
			if err := pr.Close(); err != nil {
				return nil, fmt.Errorf("proto: batch decode %s: %w", kind, err)
			}
			out = append(out, p)
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto: batch frame: %w", err)
	}
	return out, nil
}
