package core

import (
	"math/bits"

	"repro/internal/query"
	"repro/internal/relation"
)

// FullImpact computes F(q) for every query in the log (Definition 7,
// Algorithm 2): the transitive closure of each query's written attributes
// through later queries that read them.
//
// Algorithm 2's backward scan tests every later query, O(n²) set work.
// Its step "if f ∩ P(qj) ≠ ∅ then f ∪= F(qj)" distributes over a union
// of starting sets, so F(qi) = ∪_{a ∈ I(qi)} R_{i+1}(a), where R_p(a) is
// the scan started from {a} at statement p. Going back to front,
// R_p(a) = R_{p+1}(a) ∪ ∪_{b ∈ F(qp)} R_{p+1}(b) when a ∈ P(qp), and
// R_{p+1}(a) otherwise. Keeping one reach set per attribute makes the
// closure O(n·w) set unions for a width-w schema. Attributes outside
// the schema (malformed input) start as singletons and get a reach set
// when read. The returned sets share one backing array; treat them as
// read-only.
func FullImpact(log []query.Query, width int) []query.AttrSet {
	n := len(log)
	words := (width + 63) / 64
	// One backing array: n closures, width reach sets and the scratch
	// set. Each set is capped at its slot, so a set that grows past the
	// schema width reallocates instead of spilling into its neighbour.
	backing := make(query.AttrSet, (n+width+1)*words)
	slot := func(k int) query.AttrSet { return backing[k*words : (k+1)*words : (k+1)*words] }
	full := make([]query.AttrSet, n)
	reach := make([]query.AttrSet, width)
	for a := range reach {
		reach[a] = slot(n + a)
		reach[a].Add(a)
	}
	scratch := slot(n + width)
	for p := n - 1; p >= 0; p-- {
		full[p] = slot(p)
		unionReach(&full[p], query.DirectImpact(log[p], width), reach)
		deps := query.Dependency(log[p])
		if deps.Len() == 0 {
			continue
		}
		clear(scratch)
		unionReach(&scratch, full[p], reach)
		for i, w := range deps {
			for ; w != 0; w &= w - 1 {
				a := i*64 + bits.TrailingZeros64(w)
				for len(reach) <= a {
					reach = append(reach, query.NewAttrSet(len(reach)))
				}
				reach[a].Union(scratch)
			}
		}
	}
	return full
}

// unionReach adds R(a) to dst for every member a of src. src must not
// alias dst: the bits of src are read while dst grows.
func unionReach(dst *query.AttrSet, src query.AttrSet, reach []query.AttrSet) {
	for i, w := range src {
		for ; w != 0; w &= w - 1 {
			if a := i*64 + bits.TrailingZeros64(w); a < len(reach) {
				dst.Union(reach[a])
			} else {
				dst.Add(a)
			}
		}
	}
}

// ExtendFullImpact updates the FullImpact closure of a log prefix to
// cover an extended log: prev is FullImpact(log[:len(prev)], width) and
// the result equals FullImpact(log, width) element for element.
//
// The closure is log-structural and complaint-independent, so repeated
// diagnoses of a growing log can reuse the prefix instead of paying the
// O(n·w) recompute (the ROADMAP's impact-cache item). New suffix entries
// are computed fresh — their backward scans only consult later entries,
// all of which are new. A prefix entry i is recomputed only when its old
// impact reaches the dependency set of a *dirty* later query (a new
// query, or a prefix query whose own closure changed): until the scan
// for i touches a dirty entry it replays the original scan exactly, and
// since the scan's working set only ever grows toward prev[i], an old
// closure disjoint from every dirty dependency set can never diverge.
// Kept entries alias prev's sets; callers must treat both as read-only.
//
// Malformed input (prev longer than the log) falls back to the full
// recompute rather than guessing.
//
// Cost is proportional to what actually changed: dependency sets
// materialize lazily and the staleness scan walks the list of dirty
// entries rather than the whole log, so appending one statement that
// nothing upstream feeds into costs O(n) set-intersection checks — not
// a rebuild of all n dependency sets or a cold closure.
func ExtendFullImpact(prev []query.AttrSet, log []query.Query, width int) []query.AttrSet {
	prevN := len(prev)
	n := len(log)
	if prevN == 0 || prevN > n {
		return FullImpact(log, width)
	}
	deps := make([]query.AttrSet, n)
	depOf := func(j int) query.AttrSet {
		if deps[j] == nil { // Dependency always returns a non-nil set
			deps[j] = query.Dependency(log[j])
		}
		return deps[j]
	}
	// fillDeps materializes the range a closure scan consults.
	fillDeps := func(from int) {
		for j := from; j < n; j++ {
			depOf(j)
		}
	}
	full := make([]query.AttrSet, n)
	// dirtyIdx lists entries whose closure is new or changed. Entries
	// are appended while processing descending i, so while handling
	// entry i every listed index exceeds i.
	var dirtyIdx []int
	for i := n - 1; i >= prevN; i-- {
		fillDeps(i + 1)
		full[i] = closureScan(log[i], deps, full, i, n, width)
		dirtyIdx = append(dirtyIdx, i)
	}
	for i := prevN - 1; i >= 0; i-- {
		stale := false
		for _, j := range dirtyIdx {
			if prev[i].Intersects(depOf(j)) {
				stale = true
				break
			}
		}
		if !stale {
			full[i] = prev[i]
			continue
		}
		fillDeps(i + 1)
		full[i] = closureScan(log[i], deps, full, i, n, width)
		if !full[i].Equal(prev[i]) {
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	return full
}

// closureScan is one backward-pass step of Algorithm 2: the transitive
// impact of log[i] through the (already final) closures of later queries.
func closureScan(q query.Query, deps, full []query.AttrSet, i, n, width int) query.AttrSet {
	f := query.DirectImpact(q, width)
	for j := i + 1; j < n; j++ {
		if f.Intersects(deps[j]) {
			f.Union(full[j])
		}
	}
	return f
}

// complaintAttrs computes A(C) (Definition 6) against the dirty final
// state: the attributes identified as incorrect.
func complaintAttrs(complaints []Complaint, dirtyFinal *relation.Table) query.AttrSet {
	var a query.AttrSet
	for _, c := range complaints {
		a.Union(complaintAttrSet(c, dirtyFinal))
	}
	return a
}

// complaintAttrSet computes A(c) for a single complaint: value
// complaints contribute the attributes where the target disagrees with
// the dirty final state; existence complaints (insert/delete repairs)
// contribute every attribute. The per-complaint sets drive the
// partition planner's interaction graph; their union is A(C).
func complaintAttrSet(c Complaint, dirtyFinal *relation.Table) query.AttrSet {
	width := dirtyFinal.Schema().Width()
	dirty, inFinal := dirtyFinal.Get(c.TupleID)
	if !c.Exists || !inFinal {
		// Tuple existence is wrong: every attribute is implicated.
		return query.FullAttrSet(width)
	}
	var a query.AttrSet
	for i := 0; i < width; i++ {
		if dirty.Values[i] != c.Values[i] {
			a.Add(i)
		}
	}
	return a
}

// relevantQueries applies query slicing (§5.2): candidates are queries
// whose full impact intersects A(C); under the single-corruption
// assumption, queries whose full impact covers all of A(C).
func relevantQueries(full []query.AttrSet, ac query.AttrSet, single bool) []int {
	var rel []int
	for i, f := range full {
		if single {
			if f.ContainsAll(ac) {
				rel = append(rel, i)
			}
		} else if f.Intersects(ac) {
			rel = append(rel, i)
		}
	}
	return rel
}

// relevantAttrs applies attribute slicing (§5.3): the union of full
// impacts and dependencies of relevant queries, always including A(C).
func relevantAttrs(log []query.Query, full []query.AttrSet, rel []int, ac query.AttrSet) []int {
	s := ac.Clone()
	for _, i := range rel {
		s.Union(full[i])
		s.Union(query.Dependency(log[i]))
	}
	return s.Sorted()
}
