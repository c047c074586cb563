package proto

import (
	"fmt"

	"svssba/internal/sim"
)

// Wire v2 message grouping. Two shapes exist:
//
//   - A broadcast *bundle* is the RB value of a ProtoBundle broadcast:
//     all logical broadcasts a process produces within one delivery
//     burst share one RB instance, so the ack/echo storm of many MW
//     sub-instances (a dealer pair's 4 slots, a reveal cascade's many
//     StepRVal reveals) is paid once per bundle instead of once per
//     logical broadcast. Body: uvarint count, then per item a Tag
//     followed by a VarBytes value.
//
//   - A *pack* is a direct payload carrying every point-to-point payload
//     a process produced for one destination within one burst; the
//     receiver unpacks and delivers each item through the normal
//     per-payload path (DMM filtering included). Encoding: uvarint
//     count, then per item its one-byte kind code, a uvarint body
//     length and the body in the item's own MarshalTo encoding.
//
// Both shapes refuse nesting on decode: a bundle item's tag must not be
// ProtoBundle and a pack item's kind must not be KindPack, so a
// Byzantine sender cannot build recursive frames.

// BundleItem is one logical broadcast inside a bundle body.
type BundleItem struct {
	Tag   Tag
	Value []byte
}

// AppendEncodeBundle appends the bundle body for (tags[i], values[i])
// pairs to dst. The two slices must have equal length.
func AppendEncodeBundle(dst []byte, tags []Tag, values [][]byte) []byte {
	w := writerPool.Get().(*Writer)
	w.buf = dst
	w.Uvarint(uint64(len(tags)))
	for i, t := range tags {
		t.MarshalTo(w)
		w.VarBytes(values[i])
	}
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	return out
}

// EncodeBundle encodes the bundle body in one pre-sized allocation.
func EncodeBundle(tags []Tag, values [][]byte) []byte {
	size := UvarintSize(uint64(len(tags)))
	for i, t := range tags {
		size += t.Size() + VarBytesSize(len(values[i]))
	}
	return AppendEncodeBundle(make([]byte, 0, size), tags, values)
}

// minBundleItem is the smallest encoded bundle item: an all-zero tag
// (Proto byte and empty mask) and an empty value.
const minBundleItem = 2 + 1

// DecodeBundle decodes a bundle body. Corrupt or truncated bodies, and
// bodies containing a nested ProtoBundle tag, return an error and no
// items — callers discard such bundles whole.
func DecodeBundle(b []byte) ([]BundleItem, error) {
	r := getReader(b)
	defer putReader(r)
	count := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("proto: bundle header: %w", r.Err())
	}
	// Each item costs at least its tag (Proto byte and mask) plus the
	// value length prefix.
	if count > uint64(r.Remaining()/minBundleItem) {
		return nil, fmt.Errorf("proto: bundle count %d: %w", count, ErrShortBuffer)
	}
	items := make([]BundleItem, 0, count)
	for i := 0; i < int(count); i++ {
		t := ReadTag(r)
		v := r.VarBytes()
		if r.Err() != nil {
			return nil, fmt.Errorf("proto: bundle item %d: %w", i, r.Err())
		}
		if t.Proto == ProtoBundle {
			return nil, fmt.Errorf("proto: bundle item %d: nested bundle tag", i)
		}
		items = append(items, BundleItem{Tag: t, Value: v})
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("proto: bundle body: %w", err)
	}
	return items, nil
}

// KindPack is the payload kind of a wire-v2 direct pack.
const KindPack = "pack/v2"

// Pack is the wire-v2 multi-payload direct message: every payload the
// sender produced for one destination within one delivery burst. The
// receiving node unpacks it and runs each item through the standard
// single-payload delivery path.
type Pack struct {
	Items []sim.Payload
}

var _ Marshaler = Pack{}

// Kind implements sim.Payload.
func (Pack) Kind() string { return KindPack }

// Size implements sim.Payload.
func (p Pack) Size() int {
	size := UvarintSize(uint64(len(p.Items)))
	for _, it := range p.Items {
		n := it.Size()
		size += 1 + UvarintSize(uint64(n)) + n
	}
	return size
}

// MarshalTo implements proto.Marshaler. Every item must itself be a
// Marshaler with a wire kind code (all honest protocol payloads are);
// an item that is not gets code 0 and no body, which every receiver
// rejects.
func (p Pack) MarshalTo(w *Writer) {
	w.Uvarint(uint64(len(p.Items)))
	for _, it := range p.Items {
		code, _ := KindCode(it.Kind())
		w.U8(code)
		w.Uvarint(uint64(it.Size()))
		if m, ok := it.(Marshaler); ok {
			m.MarshalTo(w)
		}
	}
}

// RegisterPackCodec registers the pack decoder on c. It closes over c so
// item bodies decode through the same kind registry; nested packs are
// rejected.
func RegisterPackCodec(c *Codec) {
	c.Register(KindPack, func(r *Reader) (sim.Payload, error) {
		count := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Each item costs at least its kind code and body-length prefix.
		if count > uint64(r.Remaining()/2) {
			return nil, fmt.Errorf("proto: pack count %d: %w", count, ErrShortBuffer)
		}
		items := make([]sim.Payload, 0, count)
		for i := 0; i < int(count); i++ {
			code := r.U8()
			if r.Err() != nil {
				return nil, fmt.Errorf("proto: pack item %d kind: %w", i, r.Err())
			}
			kind := kindName(code)
			if kind == KindPack {
				return nil, fmt.Errorf("proto: pack item %d: nested pack", i)
			}
			dec := c.decoders[code]
			if dec == nil {
				return nil, fmt.Errorf("proto: no decoder for kind %s", kind)
			}
			bl := r.Uvarint()
			if r.Err() != nil || bl > uint64(r.Remaining()) {
				return nil, fmt.Errorf("proto: pack item %d length: %w", i, ErrShortBuffer)
			}
			pr := getReader(r.take(int(bl)))
			p, err := dec(pr)
			if err == nil {
				err = pr.Close()
			}
			putReader(pr)
			if err != nil {
				return nil, fmt.Errorf("proto: pack decode %s: %w", kind, err)
			}
			items = append(items, p)
		}
		return Pack{Items: items}, nil
	})
}
