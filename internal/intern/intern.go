// Package intern provides the dense-state building blocks the protocol
// engines' hot paths are built on: an interning table that maps
// comparable instance keys (packed broadcast tags, MW-SVSS ids, ...) to
// small dense ids with free-list recycling, fixed-width bitsets for
// process and index sets, and an inline small-value counter that
// replaces map[string]int vote tallies.
//
// The motivation is the per-delivery cost profile of the stack: the
// paper's O(n²) echo complexity means every reliable-broadcast instance
// sees ~n² deliveries, each of which previously paid a map lookup keyed
// by an (origin, proto.Tag) struct plus two or three map writes inside
// the instance. With interning, one delivery costs a single key lookup
// (often served by a one-slot cache during echo storms) and the rest of
// the state transition is slab indexing and word-sized bit arithmetic —
// zero allocations on the warm path.
//
// The key type matters as much as the table. An (origin, proto.Tag)
// struct is 80 bytes in memory (int-sized process ids, padding after
// the byte fields) however few bytes its compact wire encoding takes,
// and a padded struct key is hashed and compared field by field. The engines therefore intern the packed
// forms from internal/proto (PackTag, PackMWID, PackSession): fixed
// arrays of uint64 with no padding, hashed and compared as plain memory.
//
// None of the types here are safe for concurrent use; like the engines
// that embed them they live on a single delivery goroutine.
package intern

// NoID marks the absence of an interned id.
const NoID = ^uint32(0)

// Table interns comparable keys as dense uint32 ids. Ids are allocated
// sequentially and recycled through a free list when released, so a
// slab indexed by id stays compact across instance churn. The zero
// Table is ready to use.
type Table[K comparable] struct {
	ids  map[K]uint32
	keys []K      // id -> key, live or free
	free []uint32 // released ids, reused LIFO

	// One-slot lookup cache: deliveries cluster by instance (echo
	// storms), so consecutive lookups usually hit the same key.
	lastKey K
	lastID  uint32

	// created counts fresh interns cumulatively (never reset): each
	// fresh key is one protocol instance, so created is the denominator
	// of per-instance complexity reports.
	created uint64
}

// Created returns the cumulative number of fresh interns (instances
// ever created); Release and Reset do not decrease it.
func (t *Table[K]) Created() uint64 { return t.created }

// Lookup returns the id interned for k, or NoID.
func (t *Table[K]) Lookup(k K) uint32 {
	if t.lastID != NoID && k == t.lastKey && t.ids != nil {
		return t.lastID
	}
	id, ok := t.ids[k]
	if !ok {
		return NoID
	}
	t.lastKey, t.lastID = k, id
	return id
}

// Intern returns the id for k, allocating one (fresh=true) if k is not
// interned yet. Fresh ids come from the free list when available, else
// extend the id space by one (so a slab grown in step with HighWater
// always has a slot for a fresh id).
func (t *Table[K]) Intern(k K) (id uint32, fresh bool) {
	if id = t.Lookup(k); id != NoID {
		return id, false
	}
	if t.ids == nil {
		t.ids = make(map[K]uint32)
		t.lastID = NoID
	}
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.keys[id] = k
	} else {
		id = uint32(len(t.keys))
		t.keys = append(t.keys, k)
	}
	t.ids[k] = id
	t.lastKey, t.lastID = k, id
	t.created++
	return id, true
}

// Release returns k's id to the free list. Releasing an unknown key is
// a no-op.
//
// Note the semantics before reaching for this: a released key loses
// its instance's tombstone state, so a late message for it would
// re-create a fresh instance. The protocol engines therefore retire
// via Reset (only once the whole stack is done and inbound traffic is
// gated); Release is the finer-grained primitive for layers that can
// prove their late messages inert — e.g. releasing a finished coin
// round's instances once the →-ordering makes its traffic undeliverable.
func (t *Table[K]) Release(k K) {
	id, ok := t.ids[k]
	if !ok {
		return
	}
	delete(t.ids, k)
	var zero K
	t.keys[id] = zero
	t.free = append(t.free, id)
	if t.lastID == id {
		t.lastID = NoID
		t.lastKey = zero
	}
}

// Key returns the key interned under id (the zero K for freed slots).
func (t *Table[K]) Key(id uint32) K { return t.keys[id] }

// Len returns the number of live (interned, unreleased) keys.
func (t *Table[K]) Len() int { return len(t.ids) }

// HighWater returns the id-space size: the largest id ever allocated
// plus one. Slabs indexed by id must hold at least this many slots.
func (t *Table[K]) HighWater() int { return len(t.keys) }

// Reset releases every key and forgets the id space, keeping the
// allocated capacity for reuse.
func (t *Table[K]) Reset() {
	clear(t.ids)
	clear(t.keys)
	t.keys = t.keys[:0]
	t.free = t.free[:0]
	var zero K
	t.lastKey, t.lastID = zero, NoID
}
