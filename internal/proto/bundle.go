package proto

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"svssba/internal/sim"
)

// Wire v2 message grouping. Two shapes exist:
//
//   - A broadcast *bundle* is the RB value of a ProtoBundle broadcast:
//     all logical broadcasts a process produces within one delivery
//     burst share one RB instance, so the ack/echo storm of many MW
//     sub-instances (a dealer pair's 4 slots, the slab reveals of every
//     sub-instance a reconstruction opens) is paid once per bundle
//     instead of once per logical broadcast. Body: uvarint count, then per item a Tag
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

// DecodeBundle decodes a bundle body, appending its items to dst (nil,
// or a caller-owned buffer truncated to length 0) and returning the
// extended slice. Item values alias b. Corrupt or truncated bodies, and
// bodies containing a nested ProtoBundle tag, return dst unchanged and
// an error — callers discard such bundles whole; dst's spare capacity
// may then hold partly decoded items.
func DecodeBundle(dst []BundleItem, b []byte) ([]BundleItem, error) {
	r := getReader(b)
	defer putReader(r)
	count := r.Uvarint()
	if r.Err() != nil {
		return dst, fmt.Errorf("proto: bundle header: %w", r.Err())
	}
	// Each item costs at least its tag (Proto byte and mask) plus the
	// value length prefix.
	if count > uint64(r.Remaining()/minBundleItem) {
		return dst, fmt.Errorf("proto: bundle count %d: %w", count, ErrShortBuffer)
	}
	items := slices.Grow(dst, int(count))
	for i := 0; i < int(count); i++ {
		t := ReadTag(r)
		v := r.VarBytes()
		if r.Err() != nil {
			return dst, fmt.Errorf("proto: bundle item %d: %w", i, r.Err())
		}
		if t.Proto == ProtoBundle {
			return dst, fmt.Errorf("proto: bundle item %d: nested bundle tag", i)
		}
		items = append(items, BundleItem{Tag: t, Value: v})
	}
	if err := r.Close(); err != nil {
		return dst, fmt.Errorf("proto: bundle body: %w", err)
	}
	return items, nil
}

// DigestSize is the size of a broadcast digest, SHA-256. A wire-v2
// bundle body or an ACS proposal (ProtoBundle and ProtoACS tags) of at
// least this length is echoed by digest: its RB type 1 carries the
// body, its type 2 and type 3 carry SHA-256(body) (package rb). Shorter
// bodies are echoed inline, so an echo value of exactly this size under
// those tags is always a digest.
const DigestSize = sha256.Size

// DigestBody reports whether a broadcast of body under tag is echoed by
// digest.
func DigestBody(tag Tag, body []byte) bool {
	return digested(tag) && len(body) >= DigestSize
}

// DigestEcho reports whether an echo value under tag is a digest.
func DigestEcho(tag Tag, v []byte) bool {
	return digested(tag) && len(v) == DigestSize
}

// digested reports whether tag's namespace carries bodies worth echoing
// by digest.
func digested(tag Tag) bool {
	return tag.Proto == ProtoBundle || tag.Proto == ProtoACS
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
