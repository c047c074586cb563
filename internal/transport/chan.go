package transport

import (
	"fmt"
	"sync"

	"svssba/internal/sim"
)

// Mesh is the in-process transport fabric: n endpoints, each sending
// straight into its peers' inboxes. Build one Mesh per cluster, hand
// Endpoint(i) to node i, and the whole cluster runs inside a single
// process with no sockets — the fast path for in-process cluster runs
// and for node tests under the race detector.
type Mesh struct {
	// mu guards eps: senders resolve peers concurrently with
	// ResetEndpoint swapping a restarted node's endpoint in.
	mu  sync.RWMutex
	eps []*meshEndpoint // indexed by ProcID, 0 unused
}

// NewMesh creates a fabric for processes 1..n.
func NewMesh(n int) *Mesh {
	m := &Mesh{eps: make([]*meshEndpoint, n+1)}
	for p := 1; p <= n; p++ {
		m.eps[p] = newMeshEndpoint(m, sim.ProcID(p))
	}
	return m
}

// N returns the number of endpoints.
func (m *Mesh) N() int { return len(m.eps) - 1 }

// endpoint resolves id under the read lock; nil when out of range.
func (m *Mesh) endpoint(id sim.ProcID) *meshEndpoint {
	if id < 1 || int(id) >= len(m.eps) {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.eps[id]
}

// Endpoint returns process id's transport. The same endpoint is
// returned on every call; a closed endpoint stays closed (a crashed
// process that restarts gets a fresh link set via ResetEndpoint).
func (m *Mesh) Endpoint(id sim.ProcID) (Transport, error) {
	ep := m.endpoint(id)
	if ep == nil {
		return nil, fmt.Errorf("transport: endpoint id %d out of range 1..%d", id, m.N())
	}
	return ep, nil
}

// ResetEndpoint replaces a (typically closed) endpoint with a fresh one
// so a restarted node can rejoin the fabric.
func (m *Mesh) ResetEndpoint(id sim.ProcID) (Transport, error) {
	if id < 1 || int(id) >= len(m.eps) {
		return nil, fmt.Errorf("transport: endpoint id %d out of range 1..%d", id, m.N())
	}
	fresh := newMeshEndpoint(m, id)
	m.mu.Lock()
	old := m.eps[id]
	m.eps[id] = fresh
	m.mu.Unlock()
	old.Close()
	return fresh, nil
}

// meshEndpoint is one process's port on the Mesh: a Send that pushes
// straight into the peer's inbox, and the inbox it receives on.
type meshEndpoint struct {
	mesh *Mesh
	self sim.ProcID
	*inbox
}

var _ Transport = (*meshEndpoint)(nil)

func newMeshEndpoint(m *Mesh, self sim.ProcID) *meshEndpoint {
	return &meshEndpoint{mesh: m, self: self, inbox: newInbox()}
}

func (e *meshEndpoint) Self() sim.ProcID { return e.self }

func (e *meshEndpoint) Start() error {
	if !e.start() {
		return fmt.Errorf("transport: endpoint %d is closed", e.self)
	}
	return nil
}

// Send pushes the frame into the peer's inbox, which drops it while the
// peer is unstarted or closed.
func (e *meshEndpoint) Send(to sim.ProcID, data []byte) error {
	peer := e.mesh.endpoint(to)
	if peer == nil {
		return fmt.Errorf("transport: send to unknown peer %d", to)
	}
	peer.push(Frame{From: e.self, Data: data})
	return nil
}

func (e *meshEndpoint) Close() error {
	e.close()
	return nil
}
