package node

import (
	"sync"

	"svssba/internal/proto"
	"svssba/internal/sim"
)

// statShard is the node's traffic counters, interned by kind like
// sim.Network. The delivery goroutine counts under its mutex; Stats()
// and the metric gauges read it from other goroutines.
type statShard struct {
	mu                       sync.Mutex
	sent, sentB              int64
	recv, recvB              int64
	sentF, sentFB            int64
	recvF, recvFB            int64
	decodeErrs               int64
	oversizedDropped         int64
	latePayloads             int64
	kindIDs                  map[string]int
	kindNames                []string
	sentByKind, sentBByKind  []int64
	recvByKind, recvBByKind  []int64
	sentGByKind, recvGByKind []int64
	lastKind                 string
	lastKindID               int
}

func newStatShard() *statShard {
	return &statShard{
		kindIDs:    make(map[string]int, 16),
		lastKindID: -1,
	}
}

// kindIDLocked interns a payload kind; the caller must hold sh.mu.
func (sh *statShard) kindIDLocked(kind string) int {
	if kind == sh.lastKind && sh.lastKindID >= 0 {
		return sh.lastKindID
	}
	id, ok := sh.kindIDs[kind]
	if !ok {
		id = len(sh.kindNames)
		sh.kindIDs[kind] = id
		sh.kindNames = append(sh.kindNames, kind)
		sh.sentByKind = append(sh.sentByKind, 0)
		sh.sentBByKind = append(sh.sentBByKind, 0)
		sh.recvByKind = append(sh.recvByKind, 0)
		sh.recvBByKind = append(sh.recvBByKind, 0)
		sh.sentGByKind = append(sh.sentGByKind, 0)
		sh.recvGByKind = append(sh.recvGByKind, 0)
	}
	sh.lastKind, sh.lastKindID = kind, id
	return id
}

// countSentFrame records one physical frame of frameBytes carrying ps:
// every payload counts logically, every same-kind run counts as one wire
// group.
func (sh *statShard) countSentFrame(ps []sim.Payload, frameBytes int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sentF++
	sh.sentFB += int64(frameBytes)
	lastGroup := -1
	for _, p := range ps {
		sh.sent++
		sb := int64(proto.FrameSize(p))
		sh.sentB += sb
		kind := p.Kind()
		if sc, ok := p.(proto.Scoped); ok && sc.Inner != nil {
			// Attribute the payload to the wrapped kind so per-kind and
			// per-layer stats stay protocol-meaningful (the byte counters
			// keep the envelope's full size).
			kind = sc.Inner.Kind()
		}
		id := sh.kindIDLocked(kind)
		sh.sentByKind[id]++
		sh.sentBByKind[id] += sb
		if id != lastGroup {
			sh.sentGByKind[id]++
			lastGroup = id
		}
	}
}

// countRecvFrameOnly records one inbound physical frame whose payloads
// are counted individually (each envelope is inspected before its inner
// payload exists).
func (sh *statShard) countRecvFrameOnly(frameBytes int) {
	sh.mu.Lock()
	sh.recvF++
	sh.recvFB += int64(frameBytes)
	sh.mu.Unlock()
}

// countRecvPayload records one logical inbound payload under kind.
func (sh *statShard) countRecvPayload(kind string, size int) {
	sh.mu.Lock()
	sh.recv++
	sh.recvB += int64(size)
	id := sh.kindIDLocked(kind)
	sh.recvByKind[id]++
	sh.recvBByKind[id] += int64(size)
	sh.recvGByKind[id]++
	sh.mu.Unlock()
}

// countLatePayload records a scoped payload dropped because the driver
// refused its scope.
func (sh *statShard) countLatePayload() {
	sh.mu.Lock()
	sh.latePayloads++
	sh.mu.Unlock()
}

// countOversized records an outbound payload dropped for exceeding the
// frame cap.
func (sh *statShard) countOversized() {
	sh.mu.Lock()
	sh.oversizedDropped++
	sh.mu.Unlock()
}

func (sh *statShard) countDecodeErr() {
	sh.mu.Lock()
	sh.decodeErrs++
	sh.mu.Unlock()
}

// addTo adds the counters to a snapshot whose maps are already
// allocated.
func (sh *statShard) addTo(s *Stats) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.Sent += sh.sent
	s.SentBytes += sh.sentB
	s.Recv += sh.recv
	s.RecvBytes += sh.recvB
	s.SentFrames += sh.sentF
	s.SentFrameBytes += sh.sentFB
	s.RecvFrames += sh.recvF
	s.RecvFrameBytes += sh.recvFB
	s.DecodeErrs += sh.decodeErrs
	s.OversizedDropped += sh.oversizedDropped
	s.DroppedLatePayloads += sh.latePayloads
	for id, name := range sh.kindNames {
		if sh.sentByKind[id] > 0 {
			s.SentByKind[name] += sh.sentByKind[id]
			s.SentBytesByKind[name] += sh.sentBByKind[id]
			s.SentGroupsByKind[name] += sh.sentGByKind[id]
		}
		if sh.recvByKind[id] > 0 {
			s.RecvByKind[name] += sh.recvByKind[id]
			s.RecvBytesByKind[name] += sh.recvBByKind[id]
			s.RecvGroupsByKind[name] += sh.recvGByKind[id]
		}
	}
}
