package wrb

import (
	"testing"

	"svssba/internal/proto"
	"svssba/internal/rb"
)

var testTag = proto.Tag{Proto: proto.ProtoWRB, Step: 1}

func TestMsgKinds(t *testing.T) {
	if (Msg{Phase: rb.Type1}).Kind() != rb.KindType1 {
		t.Error("phase 1 kind")
	}
	if (Msg{Phase: rb.Type2}).Kind() != rb.KindType2 {
		t.Error("phase 2 kind")
	}
}

func TestMsgCodecRoundTrip(t *testing.T) {
	c := proto.NewCodec()
	rb.RegisterCodec(c)
	in := Msg{Origin: 3, Tag: testTag, Phase: rb.Type2, Value: []byte("abc")}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// kind code, origin (a one-byte uvarint), tag (Proto, mask, Step),
	// phase, length, value.
	if want := 1 + 1 + 3 + 1 + 1 + 3; len(b) != want || in.Size()+1 != want {
		t.Errorf("size mismatch: encoded %d, Size()+code %d, want %d", len(b), in.Size()+1, want)
	}
	out, err := c.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := out.(Msg)
	if !ok || got.Origin != in.Origin || got.Tag != in.Tag || got.Phase != in.Phase || string(got.Value) != "abc" {
		t.Errorf("round trip mismatch: %+v", out)
	}
}
