package core

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// traceDiagnose runs one diagnosis of the cluster workload under a
// fresh trace root and returns the ended root span.
func traceDiagnose(t *testing.T, opts Options) *obs.Span {
	t.Helper()
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	return traceRun(t, d0, dirty, complaints, opts)
}

// traceRun runs one diagnosis under a fresh trace root and returns the
// ended root span.
func traceRun(t *testing.T, d0 *relation.Table, log []query.Query, complaints []Complaint, opts Options) *obs.Span {
	t.Helper()
	root := obs.NewTrace("test")
	opts.Trace = root
	rep, err := Diagnose(d0, log, complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("diagnosis unresolved: %+v", rep.Stats)
	}
	root.End()
	return root
}

// TestTraceSpanTreeWellNested traces the partition scan, the K=3 batch
// scan and the incremental scan with refinement, which between
// them start every span the engine has: each tree must be well nested
// and export in both formats, which the exporters refuse while any span
// is left un-ended.
func TestTraceSpanTreeWellNested(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	f0, fdirty, ftruth := figure5b()
	for _, tc := range []struct {
		name string
		root func() *obs.Span
		want []string
	}{
		{"partition", func() *obs.Span {
			return traceRun(t, d0, dirty, complaints, Options{Algorithm: Basic, TupleSlicing: true,
				QuerySlicing: true, Partition: 3, TimeLimit: 30 * time.Second})
		}, []string{"diagnose", "replay", "plan", "impact", "partition", "queue", "batch",
			"encode", "solve", "presolve", "nodes", "verify", "merge"}},
		{"k3", func() *obs.Span {
			return traceRun(t, d0, dirty, complaints, Options{Algorithm: Incremental, K: 3,
				TupleSlicing: true, QuerySlicing: true, TimeLimit: 30 * time.Second})
		}, []string{"diagnose", "batch", "encode", "solve", "verify"}},
		{"refine", func() *obs.Span {
			return traceRun(t, f0, fdirty, completeComplaints(t, f0, fdirty, ftruth), Options{
				Algorithm: Incremental, TupleSlicing: true, TimeLimit: 30 * time.Second})
		}, []string{"diagnose", "batch", "refine", "encode", "solve", "verify"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.root()
			for _, export := range []func(io.Writer, *obs.Span) error{obs.WriteJSONL, obs.WriteChromeTrace} {
				if err := export(io.Discard, root); err != nil {
					t.Fatal(err)
				}
			}
			if !root.WellNested(5 * time.Millisecond) {
				t.Fatalf("trace not well-nested:\n%s", root.Structure())
			}
			// The tree must actually cover the pipeline it ran.
			s := root.Structure()
			for _, want := range tc.want {
				if !strings.Contains(s, want) {
					t.Errorf("structure missing %q span:\n%s", want, s)
				}
			}
		})
	}
}

func TestTraceStructureDeterministicAcrossSolverParallel(t *testing.T) {
	// The span STRUCTURE (shape + attr keys, no timings) must be
	// byte-identical whatever -solver-parallel is set to: parallel
	// branch-and-bound is speculative with sequential semantics, so it
	// consumes the same nodes and therefore rolls the same "nodes"
	// batch spans. Timings differ; the shape may not.
	base := Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    3,
		TimeLimit:    30 * time.Second,
	}
	var want string
	for _, sp := range []int{1, 2, -1} {
		opts := base
		opts.SolverParallel = sp
		got := traceDiagnose(t, opts).Structure()
		if got == "" {
			t.Fatalf("SolverParallel=%d produced an empty structure", sp)
		}
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("SolverParallel=%d changed the span structure:\n--- SolverParallel=1\n%s\n--- SolverParallel=%d\n%s",
				sp, want, sp, got)
		}
	}
}

func TestTraceStatsAgreeWithSpans(t *testing.T) {
	// Stats phase timers are derived from the same intervals the spans
	// record ("one consistent truth"): a traced run must report
	// non-zero plan and solve times, and the root must contain the
	// whole diagnosis.
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	root := obs.NewTrace("test")
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
		Trace:        root,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := root.End()
	if rep.Stats.PlanTime <= 0 || rep.Stats.SolveTime <= 0 || rep.Stats.EncodeTime <= 0 || rep.Stats.VerifyTime <= 0 {
		t.Fatalf("phase timers not populated: plan=%v encode=%v solve=%v verify=%v",
			rep.Stats.PlanTime, rep.Stats.EncodeTime, rep.Stats.SolveTime, rep.Stats.VerifyTime)
	}
	if sum := rep.Stats.PlanTime + rep.Stats.EncodeTime + rep.Stats.SolveTime + rep.Stats.VerifyTime; sum > total+5*time.Millisecond {
		t.Errorf("phase times (%v) exceed the root span (%v)", sum, total)
	}
}

func TestUntracedDiagnoseStillTimesPhases(t *testing.T) {
	// With no trace attached, the phase helper falls back to plain
	// clock reads — Stats must come out the same way.
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PlanTime <= 0 || rep.Stats.SolveTime <= 0 {
		t.Fatalf("untraced run lost phase timers: plan=%v solve=%v",
			rep.Stats.PlanTime, rep.Stats.SolveTime)
	}
}
