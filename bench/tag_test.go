package main

import (
	"testing"
)

func TestTagRoundTrip(t *testing.T) {
	for _, size := range []int{0, tagBytes, 64, 64 << 10} {
		tag := valueTag{Node: 3, Seq: 1<<40 + 17}
		v := makeValue(tag, size, newRand(1))
		want := size
		if want < tagBytes {
			want = tagBytes
		}
		if len(v) != want {
			t.Fatalf("size %d: value has %d bytes, want %d", size, len(v), want)
		}
		got, ok := parseTag(v)
		if !ok || got != tag {
			t.Fatalf("size %d: parsed %+v ok=%v, want %+v", size, got, ok, tag)
		}
	}
	if _, ok := parseTag(make([]byte, tagBytes-1)); ok {
		t.Error("a value shorter than the tag parsed as tagged")
	}
	if _, ok := parseTag(nil); ok {
		t.Error("an empty value parsed as tagged")
	}
}

func TestValuesFromOneSeedRepeat(t *testing.T) {
	a := makeValue(valueTag{Node: 1, Seq: 1}, 256, newRand(42))
	b := makeValue(valueTag{Node: 1, Seq: 1}, 256, newRand(42))
	c := makeValue(valueTag{Node: 1, Seq: 1}, 256, newRand(43))
	if digestOf(a) != digestOf(b) {
		t.Error("same seed produced different values")
	}
	if digestOf(a) == digestOf(c) {
		t.Error("different seeds produced the same value")
	}
}

func TestLedgerMatch(t *testing.T) {
	l := newLedger()
	tag := valueTag{Node: 2, Seq: 5}
	v := makeValue(tag, 64, newRand(7))
	l.record(tag, v)

	check := func(name string, member int, value []byte, want matchResult) {
		t.Helper()
		gotTag, tagged := parseTag(value)
		if got := l.match(member, digestOf(value), gotTag, tagged); got != want {
			t.Errorf("%s: match = %v, want %v", name, got, want)
		}
	}
	check("exact value from its proposer", 2, v, matchOK)
	check("empty proposal", 3, nil, matchEmpty)

	flipped := append([]byte(nil), v...)
	flipped[len(flipped)-1] ^= 0x80
	check("one flipped filler byte", 2, flipped, matchBad)

	truncated := v[:len(v)-1]
	check("truncated value", 2, truncated, matchBad)

	check("right value under the wrong member", 1, v, matchBad)

	unknown := makeValue(valueTag{Node: 2, Seq: 6}, 64, newRand(7))
	check("tag never submitted", 2, unknown, matchBad)

	check("untagged bytes", 2, []byte("short"), matchBad)
}

// The planted-violation checks -check runs are cheap enough to run in
// the unit tests too: a flipped byte, a wrong-but-agreed value and a
// non-agreeing simulator result must each be counted as a failure.
func TestContractChecksFire(t *testing.T) {
	if err := checkContractFires(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogueWellFormed(t *testing.T) {
	if err := checkCatalogue(); err != nil {
		t.Fatal(err)
	}
}
