// Package wrb is what is left of the separate Weak Reliable Broadcast
// engine: Appendix A.1 now runs as the first phase of every package rb
// instance. The aliases below carry no logic of their own.
//
// Deprecated: use package rb. Kept only so the benchmark harness still
// compiles; removed by ROADMAP item 6 step 1.
package wrb

import (
	"svssba/internal/rb"
	"svssba/internal/sim"
)

// Msg is rb.WeakMsg, the type 1 / type 2 message.
//
// Deprecated: use rb.WeakMsg; removed by ROADMAP item 6 step 1.
type Msg = rb.WeakMsg

// New returns rb.New(self, onAccept): the WRB phase runs inside the RB
// engine.
//
// Deprecated: use rb.New; removed by ROADMAP item 6 step 1.
func New(self sim.ProcID, onAccept rb.AcceptFunc) *rb.Engine { return rb.New(self, onAccept) }
