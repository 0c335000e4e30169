package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
)

// randomImpactLog builds a log mixing UPDATE (constant and relative
// SETs), INSERT and DELETE over `width` attributes — every statement
// shape the impact analysis distinguishes.
func randomImpactLog(rng *rand.Rand, n, width int) []query.Query {
	log := make([]query.Query, n)
	for i := range log {
		switch rng.Intn(8) {
		case 0:
			vals := make([]float64, width)
			for j := range vals {
				vals[j] = float64(rng.Intn(50))
			}
			log[i] = query.NewInsert(vals...)
		case 1:
			log[i] = query.NewDelete(
				query.AttrPred(rng.Intn(width), query.GE, float64(rng.Intn(40)+60)))
		default:
			set := query.SetClause{Attr: rng.Intn(width),
				Expr: query.ConstExpr(float64(rng.Intn(50)))}
			if rng.Intn(3) == 0 { // relative SET reads another attribute
				set.Expr = query.NewLinExpr(1, query.Term{Attr: rng.Intn(width), Coef: 1})
			}
			log[i] = query.NewUpdate([]query.SetClause{set},
				query.AttrPred(rng.Intn(width), query.GE, float64(rng.Intn(50))))
		}
	}
	return log
}

// Property: extending the closure of any prefix yields exactly the
// fresh closure of the whole log, for every prefix length including the
// degenerate ones.
func TestQuickExtendFullImpactMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(5) + 2
		n := rng.Intn(14) + 1
		log := randomImpactLog(rng, n, width)
		want := FullImpact(log, width)
		for _, prevN := range []int{0, 1, n / 2, n - 1, n} {
			if prevN < 0 || prevN > n {
				continue
			}
			prev := FullImpact(log[:prevN], width)
			got := ExtendFullImpact(prev, log, width)
			if len(got) != n {
				t.Logf("seed %d prevN %d: len %d != %d", seed, prevN, len(got), n)
				return false
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Logf("seed %d prevN %d: F(q%d) = %v, want %v",
						seed, prevN, i, got[i].Sorted(), want[i].Sorted())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ExtendFullImpact must fall back to the full recompute on malformed
// input (prev longer than the log) instead of producing garbage.
func TestExtendFullImpactMalformedPrevFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	log := randomImpactLog(rng, 8, 3)
	prev := FullImpact(log, 3)
	short := log[:5]
	got := ExtendFullImpact(prev, short, 3)
	want := FullImpact(short, 3)
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("F(q%d) = %v, want %v", i, got[i].Sorted(), want[i].Sorted())
		}
	}
}

// Digest chain: DigestLog must equal folding DigestStep, and the digest
// must distinguish logs, prefix lengths, and schemas.
func TestDigestLogRolling(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a0", "a1", "a2"}, "")
	rng := rand.New(rand.NewSource(11))
	log := randomImpactLog(rng, 6, 3)

	digests := DigestLog(sch, log)
	h := DigestSeed(sch)
	for i, q := range log {
		h = DigestStep(h, sch, q)
		if digests[i] != h {
			t.Fatalf("digest[%d] = %x, want rolling %x", i, digests[i], h)
		}
	}
	seen := map[uint64]bool{}
	for i, d := range digests {
		if seen[d] {
			t.Fatalf("digest collision at prefix %d", i+1)
		}
		seen[d] = true
	}
	other := relation.MustSchema("U", []string{"a0", "a1", "a2"}, "")
	if DigestLog(other, log)[len(log)-1] == digests[len(log)-1] {
		t.Error("digest ignores the schema")
	}
}

// An exact repeat must return the identical (shared) closure and count
// a hit; a grown log must extend; unrelated logs must miss.
func TestImpactCacheHitExtendMiss(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a0", "a1", "a2"}, "")
	rng := rand.New(rand.NewSource(3))
	log := randomImpactLog(rng, 10, 3)
	c := NewImpactCache(0)

	var st Stats
	full := c.fullImpact(log[:7], sch, 3, 0, &st)
	if st.ImpactCacheHits != 0 || st.ImpactCacheExtends != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	for i := range full {
		if !full[i].Equal(FullImpact(log[:7], 3)[i]) {
			t.Fatalf("cold closure wrong at %d", i)
		}
	}

	st = Stats{}
	again := c.fullImpact(log[:7], sch, 3, 0, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 0 {
		t.Fatalf("repeat stats = %+v, want exact hit", st)
	}
	if &again[0] != &full[0] {
		t.Error("exact hit did not share the cached closure")
	}

	st = Stats{}
	grown := c.fullImpact(log, sch, 3, 0, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 1 {
		t.Fatalf("grown stats = %+v, want prefix extension", st)
	}
	want := FullImpact(log, 3)
	for i := range want {
		if !grown[i].Equal(want[i]) {
			t.Fatalf("extended closure wrong at %d: %v want %v",
				i, grown[i].Sorted(), want[i].Sorted())
		}
	}

	st = Stats{}
	other := randomImpactLog(rand.New(rand.NewSource(99)), 5, 3)
	c.fullImpact(other, sch, 3, 0, &st)
	if st.ImpactCacheHits != 0 {
		t.Fatalf("unrelated log hit the cache: %+v", st)
	}
}

func TestImpactCacheLRUEviction(t *testing.T) {
	c := NewImpactCache(2)
	mk := func(n int) []query.AttrSet {
		out := make([]query.AttrSet, n)
		for i := range out {
			out[i] = query.NewAttrSet(0)
		}
		return out
	}
	c.Put(1, 1, mk(1))
	c.Put(2, 2, mk(2))
	if _, ok := c.Cached(1, 1); !ok { // touch 1 so 2 is the LRU victim
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(3, 3, mk(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Cached(2, 2); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.Cached(1, 1); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Cached(3, 3); !ok {
		t.Error("newest entry missing")
	}
}

// A digest collision with a different log length must read as a miss,
// never as a wrong closure.
func TestImpactCacheLengthGuard(t *testing.T) {
	c := NewImpactCache(0)
	c.Put(42, 3, []query.AttrSet{query.NewAttrSet(0), query.NewAttrSet(1), query.NewAttrSet(2)})
	if _, ok := c.Cached(42, 4); ok {
		t.Error("length mismatch served from cache")
	}
}

// A nil cache must be inert (histstore constructs stores without
// forcing callers to think about it).
func TestImpactCacheNilSafe(t *testing.T) {
	var c *ImpactCache
	if _, ok := c.Cached(1, 1); ok {
		t.Error("nil cache returned a closure")
	}
	c.Put(1, 1, nil)
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
}
