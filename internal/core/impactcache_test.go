package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
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

// An exact repeat must return the identical (shared) closure and count
// a hit; a grown log must extend; unrelated logs must miss.
func TestImpactCacheHitExtendMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := randomImpactLog(rng, 10, 3)
	c := NewImpactCache(0)

	var st Stats
	full := c.fullImpact(log[:7], 3, &st)
	if st.ImpactCacheHits != 0 || st.ImpactCacheExtends != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	assertClosure(t, "cold", full, log[:7])

	st = Stats{}
	again := c.fullImpact(log[:7], 3, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 0 {
		t.Fatalf("repeat stats = %+v, want exact hit", st)
	}
	if &again[0] != &full[0] {
		t.Error("exact hit did not share the cached closure")
	}

	st = Stats{}
	grown := c.fullImpact(log, 3, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 1 {
		t.Fatalf("grown stats = %+v, want prefix extension", st)
	}
	assertClosure(t, "extended", grown, log)

	st = Stats{}
	other := randomImpactLog(rand.New(rand.NewSource(99)), 5, 3)
	c.fullImpact(other, 3, &st)
	if st.ImpactCacheHits != 0 {
		t.Fatalf("unrelated log hit the cache: %+v", st)
	}
}

// assertClosure fails unless full is exactly FullImpact(log).
func assertClosure(t *testing.T, what string, full []query.AttrSet, log []query.Query) {
	t.Helper()
	want := FullImpact(log, 3)
	if len(full) != len(want) {
		t.Fatalf("%s closure covers %d queries, want %d", what, len(full), len(want))
	}
	for i := range want {
		if !full[i].Equal(want[i]) {
			t.Fatalf("%s closure wrong at %d: %v want %v", what, i, full[i].Sorted(), want[i].Sorted())
		}
	}
}

func TestImpactCacheLRUEviction(t *testing.T) {
	c := NewImpactCache(2)
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) ([]query.Query, []query.AttrSet) {
		log := randomImpactLog(rng, n, 3)
		return log, FullImpact(log, 3)
	}
	l1, f1 := mk(1)
	l2, f2 := mk(2)
	l3, f3 := mk(3)
	c.Put(l1, f1)
	c.Put(l2, f2)
	if _, ok := c.Cached(l1); !ok { // touch 1 so 2 is the LRU victim
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(l3, f3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Cached(l2); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.Cached(l1); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Cached(l3); !ok {
		t.Error("newest entry missing")
	}
}

// A closure answers exactly for the statements it covers: not for a
// longer or shorter log, not for one ending in the same statement after
// a different one, and never for a log its length does not match.
func TestImpactCacheLengthGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	log := randomImpactLog(rng, 5, 3)
	c := NewImpactCache(0)
	c.Put(log[:3], FullImpact(log[:3], 3))
	if _, ok := c.Cached(log[:4]); ok {
		t.Error("longer log served from cache")
	}
	if _, ok := c.Cached(log[:2]); ok {
		t.Error("shorter log served from cache")
	}
	swapped := []query.Query{log[4], log[1], log[2]} // same length, same last statement
	if _, ok := c.Cached(swapped); ok {
		t.Error("log differing before its last statement served from cache")
	}
	c.Put(log, FullImpact(log[:4], 3))
	if _, ok := c.Cached(log); ok || c.Len() != 1 {
		t.Error("closure of the wrong length was stored")
	}
}

// A nil cache must be inert (histstore constructs stores without
// forcing callers to think about it).
func TestImpactCacheNilSafe(t *testing.T) {
	var c *ImpactCache
	log := randomImpactLog(rand.New(rand.NewSource(1)), 2, 3)
	if _, ok := c.Cached(log); ok {
		t.Error("nil cache returned a closure")
	}
	c.Put(log, FullImpact(log, 3))
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
}

// The key is the statements, not their text: a log re-parsed from the
// identical SQL is new statements and plans from scratch, and what it is
// served is the fresh closure.
func TestImpactCacheReparsedLogMisses(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a0", "a1", "a2"}, "")
	log := randomImpactLog(rand.New(rand.NewSource(21)), 12, 3)
	c := NewImpactCache(0)
	var st Stats
	c.fullImpact(log, 3, &st)

	var sql strings.Builder
	for _, q := range log {
		sql.WriteString(q.String(sch))
		sql.WriteString(";\n")
	}
	reparsed, err := sqlparse.ParseLog(sch, sql.String())
	if err != nil {
		t.Fatal(err)
	}
	st = Stats{}
	full := c.fullImpact(reparsed, 3, &st)
	if st.ImpactCacheHits != 0 || st.ImpactCacheExtends != 0 {
		t.Fatalf("re-parsed log stats = %+v, want a miss", st)
	}
	assertClosure(t, "re-parsed", full, reparsed)
}

// A log that shares only its first k statements with cached logs extends
// the longest cached entry that is a prefix of it — not a shorter one,
// and not a longer entry that diverges from it.
func TestImpactCacheExtendsLongestIdenticalPrefix(t *testing.T) {
	const k = 6
	rng := rand.New(rand.NewSource(13))
	base := randomImpactLog(rng, 10, 3)
	c := NewImpactCache(0)
	c.Put(base[:3], FullImpact(base[:3], 3))
	six := FullImpact(base[:k], 3)
	c.Put(base[:k], six)
	c.Put(base[:8], FullImpact(base[:8], 3))

	// INSERTs read nothing, so extending the k-prefix keeps every one of
	// its sets: the result aliases exactly the entry it was extended from.
	log := append([]query.Query(nil), base[:k]...)
	for i := 0; i < 4; i++ {
		log = append(log, query.NewInsert(float64(i), 0, 0))
	}
	var st Stats
	full := c.fullImpact(log, 3, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 1 {
		t.Fatalf("stats = %+v, want one prefix extension", st)
	}
	assertClosure(t, "extended", full, log)
	for i := 0; i < k; i++ {
		if &full[i][0] != &six[i][0] {
			t.Fatalf("F(q%d) was not taken from the %d-statement entry", i, k)
		}
	}
}

// SetParams rewrites constants only, which no closure reads: a cached
// statement edited in place still hits, and the closure it serves is
// still the fresh one.
func TestImpactCacheSurvivesSetParams(t *testing.T) {
	log := randomImpactLog(rand.New(rand.NewSource(34)), 10, 3)
	c := NewImpactCache(0)
	var st Stats
	c.fullImpact(log, 3, &st)
	for _, q := range log {
		p := q.Params()
		for j := range p {
			p[j] += 17
		}
		if err := q.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	st = Stats{}
	full := c.fullImpact(log, 3, &st)
	if st.ImpactCacheHits != 1 || st.ImpactCacheExtends != 0 {
		t.Fatalf("stats = %+v, want an exact hit", st)
	}
	assertClosure(t, "after SetParams", full, log)
}
