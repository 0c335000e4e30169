// Package lru provides the tiny least-recently-used map shared by the
// caches in this repository (the impact cache in internal/core, the
// per-connection body tables in internal/dist). It is deliberately minimal: a
// map plus a recency tick and a linear victim scan — right for the
// single-digit-to-dozens entry counts those caches hold, with no
// intrusive list to maintain.
//
// A Map is NOT safe for concurrent use; callers hold their own lock
// (both existing callers already serialize access for semantics beyond
// the map itself).
package lru

// Map is a bounded map evicting the least recently used entry.
type Map[K comparable, V any] struct {
	max     int
	tick    int64
	entries map[K]*entry[V]
}

type entry[V any] struct {
	val  V
	used int64
}

// New returns a map bounded to max entries (max must be positive).
func New[K comparable, V any](max int) *Map[K, V] {
	if max <= 0 {
		panic("lru: non-positive capacity")
	}
	return &Map[K, V]{max: max, entries: make(map[K]*entry[V])}
}

// Get returns the value under k and marks it recently used.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if e, ok := m.entries[k]; ok {
		m.tick++
		e.used = m.tick
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k (marking it recently used), evicting the least
// recently used entry if the map is at capacity.
func (m *Map[K, V]) Put(k K, v V) {
	m.tick++
	if e, ok := m.entries[k]; ok {
		e.val, e.used = v, m.tick
		return
	}
	if len(m.entries) >= m.max {
		var victim K
		oldest := int64(1<<63 - 1)
		for key, e := range m.entries {
			if e.used < oldest {
				oldest, victim = e.used, key
			}
		}
		delete(m.entries, victim)
	}
	m.entries[k] = &entry[V]{val: v, used: m.tick}
}

// Len reports the number of entries.
func (m *Map[K, V]) Len() int { return len(m.entries) }
