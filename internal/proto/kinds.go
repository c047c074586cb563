package proto

import "fmt"

// Kind codes. On the wire a payload's kind is one byte, and this table
// is the wire spec: it maps each code to the Kind() string of the
// payload type that owns it. Kind() strings stay what stats, traces and
// the simulator key on; only the wire uses the codes. A code is never
// renumbered or reused (a retired code stays empty), a kind missing
// from the table cannot be registered (Codec.Register panics) and an
// unlisted code is a decode error.
//
// Code 0 is never assigned, so a zeroed buffer decodes as nothing, and
// codes stay below 0x80, the count bit of a Pack group header. Code 0xFF
// is retired, never to be reused: it began the batch frame, the node
// runtime's multi-payload container before Pack.
var kindNames = [...]string{
	1:  "rb/type3",    // internal/rb
	2:  "wrb/type1",   // internal/wrb
	3:  "wrb/type2",   // internal/wrb
	4:  "mw/dealvals", // internal/mwsvss
	5:  "mw/dealpoly", // internal/mwsvss
	6:  "mw/dealmod",  // internal/mwsvss
	7:  "mw/echo",     // internal/mwsvss
	8:  "mw/modvalue", // internal/mwsvss
	9:  "svss/deal",   // internal/svss
	10: "aba/bval",    // internal/aba
	11: "aba/aux",     // internal/aba
	12: "aba/conf",    // internal/aba
	13: "aba/decide",  // internal/aba
	14: KindPack,
	15: KindScoped,
	16: "",          // retired: acs/value (ACS proposals are rb broadcasts now)
	17: "benor/msg", // internal/baseline
	18: "rb/pull",   // internal/rb
}

// kindCodes inverts kindNames.
var kindCodes = func() map[string]uint8 {
	m := make(map[string]uint8, len(kindNames))
	for code, name := range kindNames {
		if name != "" {
			m[name] = uint8(code)
		}
	}
	return m
}()

// KindCode returns the wire code of kind; ok is false for a kind the
// table does not list.
func KindCode(kind string) (code uint8, ok bool) {
	code, ok = kindCodes[kind]
	return code, ok
}

// kindName names code for error messages.
func kindName(code uint8) string {
	if int(code) < len(kindNames) && kindNames[code] != "" {
		return kindNames[code]
	}
	return fmt.Sprintf("code %d", code)
}
