package proto

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"

	"svssba/internal/sim"
)

// Wire v2 message grouping. Two shapes exist:
//
//   - A broadcast *bundle* is the RB value of a ProtoBundle broadcast:
//     all logical broadcasts a process produces within one delivery
//     burst share one RB instance, so the ack/echo storm of many MW
//     sub-instances (the acks of a dealer's instances toward every
//     peer, the slab reveals of every sub-instance a reconstruction
//     opens) is paid once per bundle instead of once per logical
//     broadcast. The body names each item's tag by the fields that
//     differ from the tag of the item before it (the first item's from
//     the zero tag):
//
//	uvarint item count
//	per item:
//	  uvarint change mask   bit 0 (retired)       bit 1 MW.Moderator
//	                        bit 2 MW.Dealer       bit 3 Session.Index
//	                        bit 4 Session.Dealer  bit 5 Step
//	                        bit 6 Proto           bit 7 Session.Kind
//	                        bit 8 Session.Round   bit 9 A
//	  uvarint per set bit, ascending: the field's new value
//	  uvarint value length ++ value
//
//     The fields that change most often between neighbouring items sit
//     on bits 1–6, so the mask is one byte unless Kind, Round or A
//     changes, and a run of items of one session writes the session
//     once. Bit 0 carried the retired MW slot and is refused like any
//     unknown bit. The decoder refuses an unknown mask bit, a set bit
//     whose value equals the previous one, an overlong varint and a
//     value wider than its field (the bounds ReadTag applies), so every
//     body has exactly one encoding.
//
//   - A *pack* (Pack) is a direct payload carrying many payloads for
//     one destination: core's point-to-point payloads of one burst, and
//     the node runtime's whole frame to one peer. Same-kind runs share
//     one kind code (see Pack).
//
// Both shapes refuse nesting on decode: a bundle item's tag must not be
// ProtoBundle and a pack item's kind must not be KindPack, so a
// Byzantine sender cannot build recursive frames.

// BundleItem is one logical broadcast inside a bundle body.
type BundleItem struct {
	Tag   Tag
	Value []byte
}

// Bundle item change-mask bits (see the body layout above). Bit 0 is
// retired.
const (
	chModerator = 1 << (iota + 1)
	chMWDealer
	chIndex
	chSessDealer
	chStep
	chProto
	chKind
	chRound
	chA

	changeMask = chA<<1 - chModerator
)

// tagFields is a tag's fields in change-mask bit order, process ids as
// their 16 wire bits (as in Tag.MarshalTo); the retired bit 0 is always
// zero.
type tagFields [10]uint64

func fieldsOf(t *Tag) tagFields {
	return tagFields{
		0, uint64(uint16(t.MW.Moderator)), uint64(uint16(t.MW.Dealer)),
		uint64(t.Session.Index), uint64(uint16(t.Session.Dealer)), uint64(t.Step),
		uint64(t.Proto), uint64(t.Session.Kind), t.Session.Round, uint64(t.A),
	}
}

// changes returns cur's change mask against prev (fields of one
// identifier in mask-bit order) and the encoded size of the mask and
// the changed fields.
func changes(prev, cur []uint64) (mask uint64, size int) {
	for i, v := range cur {
		if v != prev[i] {
			mask |= 1 << i
			size += UvarintSize(v)
		}
	}
	return mask, size + UvarintSize(mask)
}

// EncodeBundle encodes the bundle body for (tags[i], values[i]) pairs
// in one pre-sized allocation. The two slices must have equal length.
func EncodeBundle(tags []Tag, values [][]byte) []byte {
	size := UvarintSize(uint64(len(tags)))
	var prev tagFields
	for i := range tags {
		cur := fieldsOf(&tags[i])
		_, n := changes(prev[:], cur[:])
		size += n + VarBytesSize(len(values[i]))
		prev = cur
	}
	w := writerPool.Get().(*Writer)
	w.buf = make([]byte, 0, size)
	w.Uvarint(uint64(len(tags)))
	prev = tagFields{}
	for i := range tags {
		cur := fieldsOf(&tags[i])
		mask, _ := changes(prev[:], cur[:])
		w.Uvarint(mask)
		for m := mask; m != 0; m &= m - 1 {
			w.Uvarint(cur[bits.TrailingZeros64(m)])
		}
		w.VarBytes(values[i])
		prev = cur
	}
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	return out
}

// change reads the field of bit if mask has it set: a value of at most
// max that differs from prev. Otherwise the field keeps prev.
func (d *idReader) change(mask, bit, prev, max uint64) uint64 {
	if mask&bit == 0 {
		return prev
	}
	v := d.value(max)
	if v == prev && d.err == nil {
		d.err = ErrNonCanonical
	}
	return v
}

// delta reads one item's change mask and changed fields into t, which
// holds the tag of the item before it.
func (d *idReader) delta(t *Tag) {
	m := d.mask(changeMask)
	t.MW.Moderator = sim.ProcID(d.change(m, chModerator, uint64(t.MW.Moderator), maxProc))
	t.MW.Dealer = sim.ProcID(d.change(m, chMWDealer, uint64(t.MW.Dealer), maxProc))
	t.Session.Index = uint32(d.change(m, chIndex, uint64(t.Session.Index), maxU32))
	t.Session.Dealer = sim.ProcID(d.change(m, chSessDealer, uint64(t.Session.Dealer), maxProc))
	t.Step = uint8(d.change(m, chStep, uint64(t.Step), maxU8))
	t.Proto = uint8(d.change(m, chProto, uint64(t.Proto), maxU8))
	t.Session.Kind = SessionKind(d.change(m, chKind, uint64(t.Session.Kind), maxU8))
	t.Session.Round = d.change(m, chRound, t.Session.Round, maxU64)
	t.A = uint32(d.change(m, chA, uint64(t.A), maxU32))
}

// minBundleItem is the smallest encoded bundle item: an empty change
// mask and an empty value.
const minBundleItem = 2

// DecodeBundle decodes a bundle body, appending its items to dst (nil,
// or a caller-owned buffer truncated to length 0) and returning the
// extended slice. Item values alias b. Corrupt, truncated or
// non-canonical bodies, and bodies containing a nested ProtoBundle tag,
// return dst unchanged and an error — callers discard such bundles
// whole; dst's spare capacity may then hold partly decoded items.
func DecodeBundle(dst []BundleItem, b []byte) ([]BundleItem, error) {
	r := getReader(b)
	defer putReader(r)
	count := r.Uvarint()
	if r.Err() != nil {
		return dst, fmt.Errorf("proto: bundle header: %w", r.Err())
	}
	// Each item costs at least its change mask plus the value length
	// prefix.
	if count > uint64(r.Remaining()/minBundleItem) {
		return dst, fmt.Errorf("proto: bundle count %d: %w", count, ErrShortBuffer)
	}
	items := slices.Grow(dst, int(count))
	var t Tag
	for i := 0; i < int(count); i++ {
		d := idReader{b: r.buf, i: r.off}
		d.delta(&t)
		d.done(r)
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

// KindPack is the payload kind of a Pack.
const KindPack = "pack/v2"

// Pack is the one multi-payload container on the wire: every direct
// payload core produced for one destination within one delivery burst,
// or a node frame's scope envelopes. The receiver runs each item through
// the single-payload delivery path. Runs of same-kind items share one
// group, and so one kind code (the wire form of echo aggregation):
//
//	uvarint group count
//	per group:
//	  u8      kind code, | countFollows if the group has several items
//	  uvarint item count (only with countFollows)
//	  per item: uvarint body length ++ body (the item's MarshalTo encoding)
//
// A group of one item costs one byte, as a per-item kind code would. An
// MWIDLed item's body writes its MWID as a change mask against the MWID
// of the pack's previous MWIDLed item, whatever the groups between them
// (the first against the zero MWID; see the identifier encoding in
// session.go), so a run of echoes of one instance names it once and an
// echo costs its mask byte ahead of its elements. A Scoped item's inner
// payload is coded against the zero MWID and moves no base: the node
// decodes Raw later, on its own. The decoder refuses a counted group of
// fewer than two items, two adjacent groups of one kind and a nested
// Pack, so every accepted Pack re-encodes to its input and no frame is
// recursive.
type Pack struct {
	Items []sim.Payload
}

// MWIDLed is a payload whose encoding opens with an MWID: its MarshalTo
// writes the MWID with MWID.MarshalTo first, and its decoder reads it
// back with ReadMWID first. PackSize returns the payload's encoded size
// with its MWID coded against base (the previous MWIDLed item's MWID in
// a Pack, see MWID.PackSize), and that MWID, so a Pack sizes an item
// with one call and no copy of the payload; Size is PackSize against the
// zero MWID. The MW-SVSS share messages and the SVSS deal are the
// MWIDLed payloads; inside a Pack their MWIDs are delta-coded (see
// Pack).
type MWIDLed interface {
	Marshaler
	PackSize(base MWID) (int, MWID)
}

var _ Marshaler = Pack{}

// Kind implements sim.Payload.
func (Pack) Kind() string { return KindPack }

// countFollows flags a group header whose item count follows. Kind
// codes stay below it (see kindNames).
const countFollows = 0x80

// run returns the end of the same-kind run of items starting at i.
func (p Pack) run(i int) int {
	j := i + 1
	for j < len(p.Items) && p.Items[j].Kind() == p.Items[i].Kind() {
		j++
	}
	return j
}

// itemSize returns the encoded size of item i, an MWIDLed item's MWID
// coded against *base, and moves *base to that MWID. It neither encodes
// nor allocates: the simulator sizes every pack it sends.
func (p Pack) itemSize(i int, base *MWID) int {
	it := p.Items[i]
	if m, ok := it.(MWIDLed); ok {
		n, id := m.PackSize(*base)
		*base = id
		return n
	}
	return it.Size()
}

// Size implements sim.Payload.
func (p Pack) Size() int {
	var base MWID
	groups, size := 0, 0
	for i := 0; i < len(p.Items); groups++ {
		j := p.run(i)
		size++ // the group header
		if j-i > 1 {
			size += UvarintSize(uint64(j - i))
		}
		for ; i < j; i++ {
			n := p.itemSize(i, &base)
			size += UvarintSize(uint64(n)) + n
		}
	}
	return UvarintSize(uint64(groups)) + size
}

// MarshalTo implements proto.Marshaler. Every item must itself be a
// Marshaler with a wire kind code (all honest protocol payloads are);
// an item that is not gets code 0 and no body, which every receiver
// rejects.
func (p Pack) MarshalTo(w *Writer) {
	inPack, wBase := w.inPack, w.mwBase
	w.inPack, w.mwBase = true, idFields{}
	groups := 0
	for i := 0; i < len(p.Items); i = p.run(i) {
		groups++
	}
	w.Uvarint(uint64(groups))
	var base MWID
	for i := 0; i < len(p.Items); {
		j := p.run(i)
		code, _ := KindCode(p.Items[i].Kind())
		if j-i == 1 {
			w.U8(code)
		} else {
			w.U8(code | countFollows)
			w.Uvarint(uint64(j - i))
		}
		for ; i < j; i++ {
			w.Uvarint(uint64(p.itemSize(i, &base)))
			if m, ok := p.Items[i].(Marshaler); ok {
				m.MarshalTo(w)
			}
		}
	}
	w.inPack, w.mwBase = inPack, wBase
}

// RegisterPackCodec registers the pack decoder on c. It closes over c so
// item bodies decode through the same kind registry. A corrupt pack
// decodes to nothing, so no prefix of its items is ever delivered.
func RegisterPackCodec(c *Codec) {
	c.Register(KindPack, func(r *Reader) (sim.Payload, error) {
		groups := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// A group costs at least its header and one body-length prefix.
		if groups > uint64(r.Remaining()/2) {
			return nil, fmt.Errorf("proto: pack of %d groups: %w", groups, ErrShortBuffer)
		}
		pr := getReader(nil) // one pooled reader for every item body
		defer putReader(pr)
		var items []sim.Payload
		var last uint8
		var base MWID // the previous MWIDLed item's MWID
		for g := 0; g < int(groups); g++ {
			h := r.U8()
			code, count := h&^countFollows, uint64(1)
			if h&countFollows != 0 {
				count = r.Uvarint()
			}
			if r.Err() != nil {
				return nil, fmt.Errorf("proto: pack group %d header: %w", g, r.Err())
			}
			kind := kindName(code)
			switch {
			case kind == KindPack:
				return nil, fmt.Errorf("proto: pack group %d: nested pack", g)
			case h&countFollows != 0 && count < 2:
				return nil, fmt.Errorf("proto: pack group %d (%s): counted group of %d items: %w", g, kind, count, ErrNonCanonical)
			case g > 0 && code == last:
				return nil, fmt.Errorf("proto: pack group %d: same kind %s as the group before", g, kind)
			case count > uint64(r.Remaining()):
				// Each item costs at least its 1-byte length prefix.
				return nil, fmt.Errorf("proto: pack group %d (%s) of %d items: %w", g, kind, count, ErrShortBuffer)
			}
			last = code
			dec := c.decoders[code]
			if dec == nil {
				return nil, fmt.Errorf("proto: no decoder for kind %s", kind)
			}
			items = slices.Grow(items, int(count))
			for i := 0; i < int(count); i++ {
				bl := r.Uvarint()
				if r.Err() != nil || bl > uint64(r.Remaining()) {
					return nil, fmt.Errorf("proto: pack item %s length: %w", kind, ErrShortBuffer)
				}
				pr.Reset(r.take(int(bl)))
				pr.inPack, pr.mwBase = true, base
				p, err := dec(pr)
				if err == nil {
					err = pr.Close()
				}
				if err != nil {
					return nil, fmt.Errorf("proto: pack decode %s: %w", kind, err)
				}
				base = pr.mwBase
				items = append(items, p)
			}
		}
		return Pack{Items: items}, nil
	})
}
