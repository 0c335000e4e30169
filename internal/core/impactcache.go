package core

import (
	"slices"
	"sync"

	"repro/internal/lru"
	"repro/internal/query"
)

// This file implements the impact cache: FullImpact closures reused
// across diagnoses of the same (or a growing) log. The closure depends
// only on each statement's read and write attribute sets — not on D0's
// contents, the complaint set, or the statements' constants — so it is
// keyed by the statements themselves: an entry covers a log whose
// statements are == the cached ones element by element. A caller that
// keeps its statements across diagnoses (histstore's log, the dist
// worker's decoded jobs) therefore hits without rendering or hashing
// anything; a re-parsed log with identical SQL is new statements and
// misses. An exact match returns the cached closure outright; a match on
// a proper prefix seeds ExtendFullImpact, which touches only the prefix
// entries whose impact reaches the appended queries. Both paths hand out
// the cached sets by reference: the engine treats impact sets as
// read-only, and sharing them is the point of caching.
//
// Statement identity is safe to key on because nothing that changes a
// closure can happen to a statement in place: SetParams rewrites only
// constants, and query.Dependency/DirectImpact read only which
// attributes a statement reads and writes.

// DefaultImpactCacheEntries bounds an ImpactCache constructed with
// NewImpactCache(0).
const DefaultImpactCacheEntries = 32

// ImpactCache caches FullImpact closures across diagnoses, keyed by the
// log's statements. Install one via Options.ImpactCache (histstore.Store
// and the dist worker each keep their own) and repeated diagnoses of the
// same log skip the O(n²) closure entirely, while diagnoses of a grown
// log pay only the incremental ExtendFullImpact update. Safe for
// concurrent use; eviction is LRU.
type ImpactCache struct {
	mu      sync.Mutex
	entries *lru.Map[impactKey, impactEntry]
}

// impactKey locates the one entry that can match a log of n statements
// ending in last; impactEntry.log confirms the rest.
type impactKey struct {
	last query.Query
	n    int
}

type impactEntry struct {
	log  []query.Query // the statements the closure covers (the caller's)
	full []query.AttrSet
}

// NewImpactCache returns a cache bounded to max closures (0 picks
// DefaultImpactCacheEntries).
func NewImpactCache(max int) *ImpactCache {
	if max <= 0 {
		max = DefaultImpactCacheEntries
	}
	return &ImpactCache{entries: lru.New[impactKey, impactEntry](max)}
}

// Cached returns the closure stored for exactly these statements, if
// any. The returned sets are shared and read-only.
func (c *ImpactCache) Cached(log []query.Query) ([]query.AttrSet, bool) {
	if c == nil || len(log) == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(log)
}

func (c *ImpactCache) getLocked(log []query.Query) ([]query.AttrSet, bool) {
	e, ok := c.entries.Get(impactKey{last: log[len(log)-1], n: len(log)})
	if !ok || !slices.Equal(e.log, log) {
		return nil, false
	}
	return e.full, true
}

// Put stores the closure of log. The cache takes both slices by
// reference — an append-only log's entries share one backing array —
// so callers must not overwrite log's elements or mutate full after;
// appending to log is fine.
func (c *ImpactCache) Put(log []query.Query, full []query.AttrSet) {
	if c == nil || len(log) == 0 || len(full) != len(log) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(impactKey{last: log[len(log)-1], n: len(log)},
		impactEntry{log: slices.Clip(log), full: full})
}

// Len reports how many closures the cache currently holds.
func (c *ImpactCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// fullImpact is the planner's entry point: return FullImpact(log),
// reusing an exact cached closure, extending the longest cached prefix,
// or computing from scratch, and record what happened in st.
func (c *ImpactCache) fullImpact(log []query.Query, width int, st *Stats) []query.AttrSet {
	if len(log) == 0 {
		return nil
	}
	c.mu.Lock()
	full, exact := c.getLocked(log)
	prefix := false
	for i := len(log) - 1; !exact && !prefix && i > 0; i-- {
		full, prefix = c.getLocked(log[:i])
	}
	c.mu.Unlock()
	switch {
	case exact:
		st.ImpactCacheHits++
		mImpactCacheHits.Inc()
		return full
	case prefix:
		st.ImpactCacheHits++
		st.ImpactCacheExtends++
		mImpactCacheHits.Inc()
		full = ExtendFullImpact(full, log, width)
	default:
		mImpactCacheMisses.Inc()
		full = FullImpact(log, width)
	}
	c.Put(log, full)
	return full
}
