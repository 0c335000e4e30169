package milp

import (
	"container/heap"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simplex"

	"repro/internal/sched"
)

// Branch-and-bound over an explicit node pool.
//
// Nodes live in a best-bound min-heap (ties broken toward the newest
// node id, which dives depth-first through freshly created children and
// keeps the frontier narrow). A single deterministic DRIVER pops nodes
// in heap order and makes every decision — pruning, branching, incumbent
// admission, limit accounting — exactly as a sequential best-bound
// search would.
//
// Parallelism (Options.Parallel) is speculative with sequential
// semantics: worker goroutines claim nodes still waiting in the heap and
// pre-solve their LP relaxations. Each node's relaxation is a pure
// function of its bound-change path from the root and its parent's end
// basis — every worker owns a Problem clone (columns shared read-only,
// bounds private) and installs the node's recorded parent basis before
// solving, so whichever goroutine solves a node, at whatever time,
// produces the identical Solution. The driver consumes whatever
// speculation finished and solves the rest itself; since heap membership
// changes only on driver actions, the sequence of consumed nodes — and
// therefore the incumbent, the statistics, and the reported solution —
// is byte-identical at any Parallel setting.
//
// The explicit heap also removes the old recursive DFS and its
// goroutine-stack depth guard: a branching chain of any depth is just
// more nodes in the pool.

type nodeState int32

const (
	nodePending nodeState = iota
	nodeRunning
	nodeSolved
)

// boundFix is one branching decision: variable v restricted to [lb, ub],
// with the bounds it replaced (the bounds in effect at the parent, so
// undo is exact even when ancestors already touched v). Paths are shared
// persistent lists — children extend their parent's path by one link.
type boundFix struct {
	parent         *boundFix
	depth          int
	v              int
	lb, ub         float64
	prevLB, prevUB float64
}

// node is one branch-and-bound subproblem.
type node struct {
	id    int64
	bound float64 // parent relaxation objective: a lower bound on this subtree
	fix   *boundFix
	basis *simplex.Snapshot // parent's end basis (shared, immutable)

	state nodeState // guarded by search.mu
	sol   simplex.Solution
	end   *simplex.Snapshot
}

// nodeHeap orders by (bound asc, id desc): best bound first, newest
// node on ties.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound < h[b].bound
	}
	return h[a].id > h[b].id
}
func (h nodeHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// probEnv is one goroutine's private solve environment: a bounds-private
// clone of the (reduced) problem, a reusable LP solver over it, and the
// bound-change path currently applied. Workers and the driver each own
// one, so no goroutine ever sees another's bound mutations.
type probEnv struct {
	prob    *simplex.Problem
	lp      *simplex.Solver
	applied *boundFix
}

// apply rewinds to the common ancestor of the applied path and the
// target path, then replays the target's suffix. Consecutive nodes are
// usually parent and child (newest-id tie-break), making this O(1)
// amortized on dives and O(divergence) in general.
func (e *probEnv) apply(path *boundFix) {
	a, b := e.applied, path
	var redo []*boundFix
	for a != b {
		if a != nil && (b == nil || a.depth >= b.depth) {
			e.prob.SetBounds(a.v, a.prevLB, a.prevUB)
			a = a.parent
		} else {
			redo = append(redo, b)
			b = b.parent
		}
	}
	for i := len(redo) - 1; i >= 0; i-- {
		f := redo[i]
		e.prob.SetBounds(f.v, f.lb, f.ub)
	}
	e.applied = path
}

// boundsAt returns the bounds of variable v in effect under path (the
// most recent fix of v, or the root bounds).
func (s *search) boundsAt(path *boundFix, v int) (lb, ub float64) {
	for f := path; f != nil; f = f.parent {
		if f.v == v {
			return f.lb, f.ub
		}
	}
	return s.rootLB[v], s.rootUB[v]
}

// search carries branch-and-bound state. Fields below mu's comment are
// shared with speculative workers and guarded by mu; everything else is
// driver-only.
type search struct {
	ps  *presolved
	opt Options

	fixedObj       float64 // objective carried by presolve-fixed vars
	rootLB, rootUB []float64

	deadline time.Time
	hasDL    bool

	nodes     int
	lpIters   int
	refactors int
	// lpNumFails and lpIterLimits count the consumed nodes whose LP gave
	// up (each also sets stopped: its subtree went unexplored).
	lpNumFails   int
	lpIterLimits int
	stopped      bool
	unbounded    bool
	// nodeLimit and timeLimit record which limit, if either, limitHit
	// stopped the search on.
	nodeLimit, timeLimit bool

	// Tracing (driver-only). Node consumption is grouped into "nodes"
	// spans of nodeBatch consumed nodes each — one span per node would
	// dwarf the trace on big searches. Because only the driver consumes
	// nodes, and consumption order is deterministic, the batch spans are
	// part of the pinned trace structure.
	span       *obs.Span // parent from Options.Trace (nil = off)
	batchSp    *obs.Span
	batchFrom  int
	batchIters int

	nextID int64

	mu   sync.Mutex
	cond *sync.Cond
	// Guarded by mu from here on.
	nheap nodeHeap
	done  bool
	// The incumbent is written only by the driver but read by workers
	// (advisory pruning of speculation targets), so writes take mu.
	incumbent []float64 // reduced space
	incObj    float64   // reduced objective + fixedObj (excludes objConst)
	hasInc    bool
}

// Solve runs presolve then branch-and-bound to optimality or a limit.
func (m *Model) Solve(opt Options) Result {
	opt = opt.withDefaults()

	psp := opt.Trace.Start("presolve")
	var ps *presolved
	if opt.NoPresolve {
		ps = identityPresolve(m.prob, m.isInt)
	} else {
		ps = presolve(m.prob, m.isInt)
	}
	psp.SetAttr("rows_dropped", ps.rowsDropped)
	psp.SetAttr("vars_fixed", ps.varsFixed)
	psp.End()
	if ps.infeasible {
		return Result{
			Status:        Infeasible,
			PresolvedRows: ps.rowsDropped,
			PresolvedVars: ps.varsFixed,
		}
	}

	s := &search{ps: ps, opt: opt, fixedObj: ps.fixedObj, incObj: math.Inf(1), span: opt.Trace}
	s.cond = sync.NewCond(&s.mu)
	n := ps.prob.NumVars()
	s.rootLB = make([]float64, n)
	s.rootUB = make([]float64, n)
	for j := 0; j < n; j++ {
		s.rootLB[j], s.rootUB[j] = ps.prob.Bounds(j)
	}
	if opt.TimeLimit > 0 {
		// Deadline enforcement is the one sanctioned wall-clock use in the
		// solver: byte-identity is guaranteed for *completed* solves, and
		// a time-limited stop is the documented divergence (ROADMAP PR 6).
		s.deadline = time.Now().Add(opt.TimeLimit) // TimeLimit contract; divergence only on limit stops
		s.hasDL = true
	}

	s.nextID = 1
	heap.Push(&s.nheap, &node{id: 0, bound: math.Inf(-1)})

	var wait func()
	if w := opt.Parallel - 1; w > 0 {
		wait = sched.Workers(w, func(int) { s.speculate() })
	}
	env := s.newEnv()
	s.run(env)
	s.closeBatch()
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if wait != nil {
		wait()
	}

	res := Result{
		Nodes:            s.nodes,
		LPIters:          s.lpIters,
		Refactorizations: s.refactors,
		LPNumFails:       s.lpNumFails,
		LPIterLimits:     s.lpIterLimits,
		NodeLimitHit:     s.nodeLimit,
		TimeLimitHit:     s.timeLimit,
		PresolvedRows:    ps.rowsDropped,
		PresolvedVars:    ps.varsFixed,
	}
	if s.hasInc {
		res.HasSolution = true
		res.X = ps.postsolve(s.incumbent)
		res.Obj = s.incObj + m.objConst
	}
	switch {
	case s.unbounded:
		res.Status = Unbounded
	case s.stopped:
		res.Status = Limit
	case s.hasInc:
		res.Status = Optimal
	default:
		res.Status = Infeasible
	}
	return res
}

func (s *search) newEnv() *probEnv {
	e := &probEnv{prob: s.ps.prob.Clone()}
	e.lp = simplex.NewSolver(e.prob, s.opt.LP)
	return e
}

// run is the deterministic driver loop.
func (s *search) run(env *probEnv) {
	for {
		if s.limitHit() {
			return
		}
		s.mu.Lock()
		if len(s.nheap) == 0 {
			s.mu.Unlock()
			return
		}
		n := heap.Pop(&s.nheap).(*node)
		s.mu.Unlock()
		// Prune on the parent bound before spending an LP: the node's
		// relaxation can only be weaker than (or equal to) its parent's.
		if s.hasInc && n.bound >= s.pruneLim() {
			continue
		}
		if s.span != nil && (s.batchSp == nil || s.nodes-s.batchFrom >= nodeBatch) {
			s.rollBatch()
		}
		sol, end := s.obtain(n, env)
		s.nodes++
		s.lpIters += sol.Iters
		s.refactors += sol.Refactors
		if !s.process(n, sol, end, env) {
			return
		}
	}
}

// obtain returns the node's LP result: the speculative one when a worker
// already produced (or is producing) it, otherwise solved inline.
func (s *search) obtain(n *node, env *probEnv) (simplex.Solution, *simplex.Snapshot) {
	s.mu.Lock()
	for n.state == nodeRunning {
		s.cond.Wait()
	}
	if n.state == nodeSolved {
		sol, end := n.sol, n.end
		s.mu.Unlock()
		return sol, end
	}
	n.state = nodeRunning
	s.mu.Unlock()
	return s.solveNode(n, env)
}

// solveNode solves the node's LP relaxation in env. The result is a pure
// function of (problem, node path, node basis): the environment is
// positioned to exactly the node's bounds, and the solver is either
// installed at the node's recorded parent basis (a canonical fresh
// factorization) or reset cold. No residue from whatever env solved
// before can leak in, which is what makes speculation exact.
func (s *search) solveNode(n *node, env *probEnv) (simplex.Solution, *simplex.Snapshot) {
	env.apply(n.fix)
	if n.basis == nil || !env.lp.Install(n.basis) {
		env.lp.Reset()
	}
	sol := env.lp.Solve()
	return sol, env.lp.Snapshot()
}

// speculate is the worker loop: claim the best pending heap node, solve
// its LP, publish the result, repeat.
func (s *search) speculate() {
	env := s.newEnv()
	s.mu.Lock()
	for !s.done {
		n := s.bestPending()
		if n == nil {
			s.cond.Wait()
			continue
		}
		n.state = nodeRunning
		s.mu.Unlock()
		sol, end := s.solveNode(n, env)
		s.mu.Lock()
		n.sol, n.end = sol, end
		n.state = nodeSolved
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// bestPending picks the most promising unclaimed node under mu: best
// (bound, newest id) among pending nodes, skipping nodes the current
// incumbent already prunes. The choice only steers speculation — the
// driver decides every node's fate regardless.
func (s *search) bestPending() *node {
	var best *node
	for _, n := range s.nheap {
		if n.state != nodePending {
			continue
		}
		if s.hasInc && n.bound >= s.pruneLim() {
			continue
		}
		if best == nil || n.bound < best.bound || (n.bound == best.bound && n.id > best.id) {
			best = n
		}
	}
	return best
}

// gap is the absolute objective gap for pruning.
const gap = 1e-9

// pruneLim is the objective value at or above which a node is pruned.
func (s *search) pruneLim() float64 {
	return s.incObj - gap
}

// process applies the driver's decision logic to a consumed node result.
// Returns false to halt the search (unbounded relaxation).
func (s *search) process(n *node, sol simplex.Solution, end *simplex.Snapshot, env *probEnv) bool {
	switch sol.Status {
	case simplex.Infeasible:
		return true
	case simplex.Unbounded:
		// Tightening integer bounds only shrinks the feasible region, so
		// an unbounded relaxation means the MILP itself is unbounded
		// (or empty; either way the search cannot conclude optimality).
		s.unbounded = true
		return false
	case simplex.IterLimit, simplex.NumFail:
		// Treat as unexplorable; conservatively drop this subtree but
		// record that the search was not exhaustive, and why.
		if sol.Status == simplex.NumFail {
			s.lpNumFails++
		} else {
			s.lpIterLimits++
		}
		s.stopped = true
		return true
	}

	lpObj := sol.Obj + s.fixedObj
	if s.hasInc && lpObj >= s.pruneLim() {
		return true
	}

	// Branch on the lowest-index fractional integer variable. Encoder
	// models create binaries in log order, so this fixes the σ literals
	// of early queries first; their downstream effects then collapse,
	// which empirically beats most-fractional branching on these models.
	branch := -1
	for j, isInt := range s.ps.isInt {
		if !isInt {
			continue
		}
		v := sol.X[j]
		if math.Abs(v-math.Round(v)) > s.opt.IntTol {
			branch = j
			break
		}
	}

	if branch < 0 {
		// Integer feasible within IntTol: snap, then re-vet the snapped
		// point itself. The LP objective belongs to the unrounded
		// iterate — rounding can move the objective past gap (corrupting
		// the stored bound and Result.Obj) and can violate a tight row by
		// up to IntTol·‖row‖ — so the incumbent is re-priced on exactly
		// the point being stored, and a point that snapping actually
		// moved is feasibility-checked before it is trusted. (A point
		// snapping did NOT move is the LP's own iterate, already
		// certified by the solver's residual checks; re-litigating it
		// against the structural gate would only reject tolerance noise.)
		x := append([]float64(nil), sol.X...)
		moved, movedBy := -1, 0.0
		for j, isInt := range s.ps.isInt {
			if !isInt {
				continue
			}
			r := math.Round(x[j])
			if d := math.Abs(x[j] - r); d > movedBy {
				moved, movedBy = j, d
			}
			x[j] = r
		}
		if movedBy == 0 {
			s.admit(x)
			return true
		}
		env.apply(n.fix) // feasibility is checked under the node's bounds
		if env.prob.PointFeasible(x) {
			s.admit(x)
			return true
		}
		// Snapping broke feasibility. Polish first: re-solve this node's
		// LP with every integer fixed at its snapped value, which either
		// certifies a nearby point with exact integer coordinates (the
		// continuous variables absorb the snap) or proves the snapped
		// integer assignment infeasible here.
		if px, ok := s.polish(n, x, end, env); ok {
			s.admit(px)
			if s.ps.prob.Objective(px)+s.fixedObj <= lpObj+gap {
				// The polished point attains this subtree's LP bound:
				// nothing below can beat it by more than gap.
				return true
			}
			// Absorbing the snap cost real objective: integer
			// assignments between the bound and the polished point may
			// hide below, so keep branching (the polished incumbent
			// still tightens the pruning meanwhile).
		}
		// Branch on the variable that moved farthest in snapping — both
		// children exclude the fractional point, so the search separates
		// it instead of admitting an infeasible incumbent (or stopping
		// at a possibly suboptimal polished one).
		branch = moved
	}

	lb, ub := s.boundsAt(n.fix, branch)
	v := sol.X[branch]
	// Clamp split points into the variable's range: LP noise must never
	// produce reversed bounds.
	floorV := math.Min(math.Max(math.Floor(v), lb), ub)
	ceilV := math.Min(math.Max(math.Ceil(v), lb), ub)
	down := &boundFix{parent: n.fix, v: branch, lb: lb, ub: floorV, prevLB: lb, prevUB: ub}
	up := &boundFix{parent: n.fix, v: branch, lb: ceilV, ub: ub, prevLB: lb, prevUB: ub}
	if n.fix != nil {
		down.depth = n.fix.depth + 1
		up.depth = n.fix.depth + 1
	} else {
		down.depth = 1
		up.depth = 1
	}
	// The nearer side gets the larger id: the heap's newest-first
	// tie-break then explores it first (better incumbents earlier), the
	// same child order the recursive search used.
	first, second := down, up
	if v-math.Floor(v) > 0.5 {
		first, second = up, down
	}
	s.mu.Lock()
	heap.Push(&s.nheap, &node{id: s.nextID, bound: lpObj, fix: second, basis: end})
	heap.Push(&s.nheap, &node{id: s.nextID + 1, bound: lpObj, fix: first, basis: end})
	s.nextID += 2
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// admit stores x (reduced space) as the incumbent when it beats the
// current bound, pricing it exactly on x itself. Driver-only; the lock
// orders the write against workers' advisory reads.
func (s *search) admit(x []float64) {
	obj := s.ps.prob.Objective(x) + s.fixedObj
	if !s.hasInc || obj < s.incObj {
		s.mu.Lock()
		s.incumbent, s.incObj, s.hasInc = x, obj, true
		s.mu.Unlock()
	}
}

// polish fixes every integer variable at its snapped value (clamped
// into the node's bounds) and re-solves the LP so the continuous
// variables absorb the snap. ok means the restricted LP certified a
// feasible point with exact integer coordinates; the node's bounds are
// restored either way. Driver-only.
func (s *search) polish(n *node, x []float64, end *simplex.Snapshot, env *probEnv) ([]float64, bool) {
	env.apply(n.fix)
	type saved struct {
		j      int
		lb, ub float64
	}
	var restore []saved
	for j, isInt := range s.ps.isInt {
		if !isInt {
			continue
		}
		lb, ub := env.prob.Bounds(j)
		v := math.Min(math.Max(x[j], lb), ub)
		restore = append(restore, saved{j, lb, ub})
		env.prob.SetBounds(j, v, v)
	}
	if end == nil || !env.lp.Install(end) {
		env.lp.Reset()
	}
	sol := env.lp.Solve()
	s.lpIters += sol.Iters
	s.refactors += sol.Refactors
	for _, r := range restore {
		env.prob.SetBounds(r.j, r.lb, r.ub)
	}
	if sol.Status != simplex.Optimal {
		return nil, false
	}
	px := append([]float64(nil), sol.X...)
	for j, isInt := range s.ps.isInt {
		if isInt {
			px[j] = math.Round(px[j]) // exact: the var was fixed there
		}
	}
	if !env.prob.PointFeasible(px) {
		return nil, false
	}
	return px, true
}

// nodeBatch is how many consumed nodes share one "nodes" trace span.
const nodeBatch = 256

// rollBatch closes the current node-batch span and opens the next.
// Driver-only: batch boundaries depend only on the (deterministic)
// consumed-node count, so the spans are part of the pinned structure.
func (s *search) rollBatch() {
	s.closeBatch()
	s.batchSp = s.span.Start("nodes")
	s.batchFrom = s.nodes
	s.batchIters = s.lpIters
}

// closeBatch stamps and ends the open node-batch span, if any.
func (s *search) closeBatch() {
	if s.batchSp == nil {
		return
	}
	s.batchSp.SetAttr("nodes", s.nodes-s.batchFrom)
	s.batchSp.SetAttr("lp_iters", s.lpIters-s.batchIters)
	s.batchSp.End()
	s.batchSp = nil
}

func (s *search) limitHit() bool {
	if s.nodes >= s.opt.MaxNodes {
		s.stopped, s.nodeLimit = true, true
		return true
	}
	if s.hasDL && time.Now().After(s.deadline) { // TimeLimit contract; divergence only on limit stops
		s.stopped, s.timeLimit = true, true
		return true
	}
	return false
}
