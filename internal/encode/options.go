package encode

import (
	"math"
	"time"

	"repro/internal/milp"
)

// Complaint is the encoder-level view of a complaint c : t -> t* (paper
// Definition 4): the tuple identified by TupleID should end the log in
// the given state. Exists=false models c : t -> ⊥ (the tuple should have
// been deleted). Insertion complaints ⊥ -> t* are expressed against the
// ID the insert produced (the tuple exists in the dirty final state or
// was wrongly deleted; truly never-created tuples are out of scope, as
// in the paper).
type Complaint struct {
	TupleID int64
	Exists  bool
	Values  []float64 // target values; ignored when Exists is false
}

// Options configures one encoding.
type Options struct {
	// ParamQueries marks the log indices whose constants become MILP
	// variables (the repair surface). Basic parameterizes every index;
	// Inc_k parameterizes a k-batch (§5.4).
	ParamQueries map[int]bool

	// TupleIDs restricts encoding to these tuples (tuple slicing, §5.1).
	// nil encodes every tuple, including insert-born ones.
	TupleIDs []int64

	// Attrs seeds the tracked attribute set (attribute slicing, §5.3).
	// nil tracks all attributes. Attributes outside the set are frozen to
	// their dirty-replay values; the encoder auto-promotes a frozen
	// attribute if a symbolic write would otherwise corrupt it, so a too-
	// small seed costs completeness of the slicing saving, not soundness.
	Attrs []int

	// FixNonComplaints adds hard final-state equality constraints for
	// encoded tuples that carry no complaint (the basic algorithm's
	// behaviour, §4.2 AssignVals).
	FixNonComplaints bool

	// SoftTupleIDs lists tuples whose final state is not constrained;
	// instead the objective counts, per tuple, whether any parameterized
	// query's condition matches it (the tuple-slicing refinement step,
	// §5.1 step 2).
	SoftTupleIDs []int64

	// DomainBound M: bound on |values| and parameter deviation. Zero
	// auto-sizes from the data and log (2×max|value| + 10).
	DomainBound float64

	// noFolding and noParamWindows are the encoder tests' references:
	// noFolding encodes every σ evaluation and value update symbolically,
	// as in a literal reading of the paper's Algorithm 1, and
	// noParamWindows skips the predicate-parameter window tightening.
	// Both change model sizes, never answers. Only this package's tests
	// set them.
	noFolding      bool
	noParamWindows bool
}

const (
	// eps separates strict comparisons and equality complements: exact
	// for the paper's integer-valued workloads.
	eps = 0.5
	// softWeight is the objective weight of each tuple the refinement
	// step counts as affected, so that the count dominates the
	// parameter distance (weight 1 per unit).
	softWeight = 1e4
)

// ParamRef locates one parameter variable: parameter Index of log entry
// Query (canonical order, see internal/query), its original value, and
// the model variable holding its repaired value.
type ParamRef struct {
	Query int
	Index int
	Orig  float64
	Var   milp.Var
}

// SigmaKey addresses the σ literal of (query index, tuple ID).
type SigmaKey struct {
	Query int
	Tuple int64
}

// Stats summarizes encoding size, the quantities Figures 4–8 reason about.
type Stats struct {
	Rows          int // constraint rows
	Vars          int // model variables
	Binaries      int // integer/binary variables
	FoldedSigmas  int // σ evaluations decided by constant folding
	SymbolSigmas  int // σ evaluations that produced binaries
	TuplesTracked int
}

// Result is an encoded MILP plus the bookkeeping to interpret solutions.
type Result struct {
	Model *milp.Model
	// Params lists the repairable parameters in log order, those of one
	// query together and in its canonical parameter order.
	Params []ParamRef
	// Sigma maps parameterized queries' symbolic σ literals; entries
	// exist only where folding failed. Used by tests and diagnostics.
	Sigma map[SigmaKey]milp.Var
	// Affected holds, per soft tuple, the binary that indicates the
	// repair touched it (refinement objective).
	Affected map[int64]milp.Var
	Stats    Stats
}

// Solve runs the model with the given limits and returns the repaired
// parameter values (by Params order) when a solution exists.
//
// Returned parameters are snapped: a value within 1e-6 of the original
// parameter, an integer or a half-integer is rounded to it. LP solutions
// carry O(feasTol) noise, and replay semantics are exact — without
// snapping, a repaired bound of 62.999999999999986 silently excludes a
// tuple with value 63. Snapping is sound here because predicate sides
// are separated by eps (0.5), far wider than the snap radius.
func (r *Result) Solve(timeLimit time.Duration, maxNodes int) (milp.Result, []float64) {
	return r.SolveOpts(milp.Options{TimeLimit: timeLimit, MaxNodes: maxNodes})
}

// SolveOpts is Solve with full control over the MILP options.
func (r *Result) SolveOpts(opt milp.Options) (milp.Result, []float64) {
	res := r.Model.Solve(opt)
	if !res.HasSolution {
		return res, nil
	}
	vals := make([]float64, len(r.Params))
	for i, p := range r.Params {
		v := res.X[int(p.Var)]
		switch {
		case math.Abs(v-p.Orig) <= 1e-6:
			v = p.Orig
		case math.Abs(v-math.Round(v)) <= 1e-6:
			v = math.Round(v)
		case math.Abs(v-math.Round(v*2)/2) <= 1e-6:
			// Half-integer boundaries arise from the eps=0.5 separation
			// (e.g. "exclude 5, include 6" optimizes to exactly 5.5).
			v = math.Round(v*2) / 2
		}
		vals[i] = v
	}
	return res, vals
}
