package proto

import (
	"fmt"

	"svssba/internal/sim"
)

// AppendEncodeBatch appends ps encoded as one Pack to dst.
//
// Deprecated: encode a Pack; kept only for bench/probes.go (ROADMAP item 6).
func (c *Codec) AppendEncodeBatch(dst []byte, ps []sim.Payload) ([]byte, error) {
	return c.AppendEncode(dst, &Pack{Items: ps})
}

// EncodeBatch encodes ps as one Pack.
//
// Deprecated: encode a Pack; kept only for bench/probes.go (ROADMAP item 6).
func (c *Codec) EncodeBatch(ps []sim.Payload) ([]byte, error) { return c.Encode(Pack{Items: ps}) }

// DecodeBatch decodes a Pack frame into its items.
//
// Deprecated: decode the frame and take its Pack's items; kept only for
// bench/probes.go (ROADMAP item 6).
func (c *Codec) DecodeBatch(b []byte) ([]sim.Payload, error) {
	p, err := c.Decode(b)
	if pk, ok := p.(Pack); ok || err != nil {
		return pk.Items, err
	}
	return nil, fmt.Errorf("proto: %s frame is not a pack", p.Kind())
}
