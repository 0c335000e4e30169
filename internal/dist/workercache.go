package dist

import (
	"sync"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/query"
	"repro/internal/relation"
)

// DefaultWorkerCacheEntries bounds a worker's decode cache when the
// server (or qfix-worker's -cache flag) does not say otherwise.
const DefaultWorkerCacheEntries = 8

// workerCache is the worker-side decode cache: every partition job of
// one diagnosis carries the identical D0 and log, so the first job of a
// run pays the JSON-to-table/query decode and subsequent jobs with the
// same digests reuse it. The shared state is read-only by construction
// (the engine replays onto clones and repairs onto cloned logs), so
// concurrent jobs may hold the same entry. The embedded impact cache
// rides along: decoded logs keep their FullImpact closure across jobs
// and runs (it is keyed by the decoded statements, which a decode hit
// hands back unchanged), so repeat jobs skip worker-side re-planning
// too. Eviction is LRU over (d0, log) digest pairs.
type workerCache struct {
	mu      sync.Mutex
	entries *lru.Map[wcKey, wcEntry] // guarded by mu
	impact  *core.ImpactCache
}

type wcKey struct{ d0, log uint64 }

type wcEntry struct {
	d0  *relation.Table
	log []query.Query
}

func newWorkerCache(max int) *workerCache {
	if max <= 0 {
		max = DefaultWorkerCacheEntries
	}
	return &workerCache{entries: lru.New[wcKey, wcEntry](max),
		impact: core.NewImpactCache(0)}
}

// lookup returns the cached decode for the digest pair. The row and log
// lengths are cheap witnesses against digest collisions: a mismatch is
// treated as a miss rather than trusted.
func (c *workerCache) lookup(k wcKey, rows, logLen int) (*relation.Table, []query.Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(k)
	if !ok || e.d0.Len() != rows || len(e.log) != logLen {
		return nil, nil, false
	}
	return e.d0, e.log, true
}

func (c *workerCache) store(k wcKey, d0 *relation.Table, log []query.Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(k, wcEntry{d0: d0, log: log})
}
