package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qfixd"
	"repro/internal/query"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke size: two slots per class, one pass
	workDir  string // scratch space: stores, CLI input files
	qfixBin  string // the built qfix CLI (cli_oltp_cold)
	buildS   float64
	spans    string // where the traced run writes its spans (JSONL)
}

// runResult is what one run reports; it marshals to the contract's
// last-line JSON object.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// driver is what differs between workloads: how inputs reach the
// program and how one diagnosis is asked for.
type driver interface {
	// setup builds the inputs, starts whatever serves the workload, and
	// runs the untimed cold pass, which verifies every repair in full.
	setup(ctx context.Context, rec *recorder) error
	// pass asks for every instance's diagnosis once, in the given order.
	pass(ctx context.Context, order []int, rec *recorder)
	// finish runs checks that need the state the timed phase left.
	finish(rec *recorder)
	// probe measures the layers only this workload exercises.
	probe(ctx context.Context, rec *recorder, m map[string]float64) error
	// teardown stops what setup started, also after a failed setup.
	teardown()
	instances() []*instance
	callers() int
}

// reply is one diagnosis as the caller saw it.
type reply struct {
	err      error
	resolved bool
	repair   *core.Repair // the library paths return the repair itself
	sql      []string     // the CLI and the daemon return the repaired log as SQL
	stats    *core.Stats  // nil where the path does not return them (CLI)
	rssMB    float64      // peak RSS of the qfix process (CLI)
}

// recorder collects what the callers observe. Callers of daemon_mixed
// run concurrently, so everything behind mu.
type recorder struct {
	mu sync.Mutex
	// cold marks the set-up's cold pass: repairs are verified in full
	// (replayed, scored against ground truth) and no latency is kept.
	cold bool
	// span is the parent of the current pass's diagnosis spans; nil
	// records nothing (the untraced run and the untraced passes).
	span *obs.Span

	nextDiag   int
	attempted  int
	failed     int
	f1         float64
	lat        []float64       // ms, verified timed diagnoses
	bestPlain  map[int]float64 // per instance, the fastest untraced timed diagnosis (ms)
	bestTraced map[int]float64 // the same over the passes that record spans
	inCall     time.Duration
	appendLat  []float64
	rss        []float64 // MB, peak resident set of the cold pass's qfix processes
	busy       int
	layers     layerSums
	drifted    map[int]bool
	counted    map[int]bool
	complaints []string
}

func newRecorder() *recorder {
	return &recorder{drifted: map[int]bool{}, counted: map[int]bool{},
		bestPlain: map[int]float64{}, bestTraced: map[int]float64{}}
}

// begin opens the span of one diagnosis; its children are the calls
// into the layers and share its id.
func (r *recorder) begin(in *instance) *obs.Span {
	if r.span == nil {
		return nil
	}
	r.mu.Lock()
	id := r.nextDiag
	r.nextDiag++
	r.mu.Unlock()
	sp := r.span.Start("diagnosis")
	sp.SetAttr("diag", id)
	sp.SetAttr("instance", in.spec.String())
	return sp
}

// done verifies one reply against want, the digest of the reference
// repair, and books it. A diagnosis fails if it errors, is refused,
// comes back unresolved, or is not the reference repair; in the cold
// pass also if the repair does not replay clean or scores another F1
// than the manifest says. Failures get no latency credit.
func (r *recorder) done(in *instance, want digest, lat time.Duration, rp *reply) {
	reason := r.verify(in, want, rp)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if rp.stats != nil {
		r.noteStats(in, rp.stats, r.cold)
	}
	if rp.rssMB > 0 {
		r.rss = append(r.rss, rp.rssMB)
	}
	if reason != "" {
		if errors.Is(rp.err, qfixd.ErrBusy) {
			r.busy++
		}
		r.failLocked(in, reason)
		return
	}
	r.f1 += in.spec.F1
	if r.cold {
		return
	}
	r.lat = append(r.lat, ms(lat))
	r.inCall += lat
	best := r.bestPlain
	if r.span != nil {
		best = r.bestTraced
	}
	if b, seen := best[in.id]; !seen || ms(lat) < b {
		best[in.id] = ms(lat)
	}
}

func (r *recorder) verify(in *instance, want digest, rp *reply) string {
	if rp.err != nil {
		return rp.err.Error()
	}
	if !rp.resolved {
		return "unresolved"
	}
	sql := rp.sql
	if rp.repair != nil {
		sql = renderLog(in.schema, rp.repair.Log)
	}
	if got := digestOf(sql); got != want {
		return fmt.Sprintf("repair %v differs from the reference %v", got, want)
	}
	if !r.cold {
		// Same digest as the repair the cold pass replayed and scored.
		return ""
	}
	var log []query.Query
	if rp.repair != nil {
		log = rp.repair.Log
	} else {
		var err error
		if log, err = parseLog(in.schema, sql); err != nil {
			return "repaired log does not parse: " + err.Error()
		}
	}
	final, err := query.Replay(log, in.in.W.D0)
	if err != nil {
		return "repaired log does not replay: " + err.Error()
	}
	if !core.ComplaintsResolved(final, in.in.Complaints, 1e-6) {
		return "repair is not replay-clean"
	}
	acc, err := in.in.Evaluate(log)
	if err != nil {
		return err.Error()
	}
	if math.Abs(acc.F1-in.spec.F1) > 1e-9 {
		return fmt.Sprintf("F1 %.4f, manifest says %.4f", acc.F1, in.spec.F1)
	}
	return ""
}

// noteStats keeps the layer counters of a timed diagnosis and, for a
// diagnosis of the instance as the manifest has it (the cold pass: the
// daemon's logs grow afterwards), compares the exactly-repeating counts
// with the manifest. A difference is drift, not failure: an
// optimisation may legitimately change node counts.
func (r *recorder) noteStats(in *instance, st *core.Stats, pristine bool) {
	if !pristine {
		r.layers.add(st)
		return
	}
	r.counted[in.id] = true
	s := in.spec
	if st.Nodes != s.Nodes || st.LPIters != s.LPIters || st.BatchesTried != s.Batches || st.Partitions != s.Partitions {
		r.drifted[in.id] = true
	}
}

func (r *recorder) appended(lat time.Duration) {
	r.mu.Lock()
	r.appendLat = append(r.appendLat, ms(lat))
	r.mu.Unlock()
}

// fail books a failure found outside a diagnosis call.
func (r *recorder) fail(in *instance, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failLocked(in, reason)
}

// failLocked counts a failure and keeps the first few reasons for
// standard error.
func (r *recorder) failLocked(in *instance, reason string) {
	r.failed++
	if len(r.complaints) < 5 {
		r.complaints = append(r.complaints, fmt.Sprintf("%v: %s", in.spec, reason))
	}
}

// newDriver returns the driver of cfg.workload, which run has looked up.
func newDriver(cfg runConfig, specs []instSpec, trafficSeed int64) driver {
	switch cfg.workload {
	case solverDeep:
		return &solverDriver{specs: specs}
	case cliOLTPCold:
		return &cliDriver{specs: specs, dir: cfg.workDir, bin: cfg.qfixBin}
	case daemonMixed:
		return &daemonDriver{specs: specs, dir: cfg.workDir, seed: trafficSeed}
	default:
		return &fleetDriver{specs: specs}
	}
}

// setupRepeats is how often an untraced run sets up, each time from
// nothing with a fresh driver; setup_s is the median. The benchmark's
// contract asks for this: one set-up of a second or two is mostly
// jitter. The traced run does not report setup_s and sets up once.
const setupRepeats = 3

// run executes one workload once.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	def := workloadByName(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	man, err := loadManifest()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	specs, err := man.pick(def, rng, cfg.tiny)
	if err != nil {
		return nil, err
	}
	trafficSeed := rng.Int63()

	var root *obs.Span
	if cfg.trace {
		root = obs.NewTrace("benchmark:" + def.name)
	}

	// Set-up: workload start to first timed operation.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var setupS, coldRSS []float64
	var rec *recorder
	var drv driver
	for i := 0; i < repeats; i++ {
		rec = newRecorder()
		rec.cold = true
		rec.span = root.Start("setup")
		t0 := time.Now()
		drv = newDriver(cfg, specs, trafficSeed)
		err := drv.setup(ctx, rec)
		setupS = append(setupS, time.Since(t0).Seconds())
		rec.span.End()
		coldRSS = append(coldRSS, rec.rss...)
		if err != nil || i < repeats-1 {
			drv.teardown()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
	}
	defer drv.teardown()
	rec.cold, rec.span = false, nil
	n := len(drv.instances())

	// Timed phase: whole passes only, so every instance is sampled
	// equally often whatever the machine's speed.
	passes := int(math.Round(cfg.seconds / def.passSeconds))
	if passes < 1 || cfg.tiny {
		passes = 1
	}
	if cfg.trace && passes%2 == 1 {
		passes++ // traced and untraced passes alternate
	}
	nominal := time.Duration(float64(passes) * def.passSeconds * float64(time.Second))
	var kernel, passWall, passCPU []float64
	var allocated uint64
	var inPasses time.Duration
	var lastKernel time.Time
	runtime.GC()
	t0 := time.Now()
	done := 0
	for p := 0; p < passes; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.tiny && time.Since(t0) > 4*nominal {
			fmt.Fprintf(os.Stderr, "%s: safety stop after %d of %d passes: the timed phase ran 4x its nominal %v\n",
				def.name, done, passes, nominal)
			break
		}
		order := rng.Perm(n)
		if cfg.trace && time.Since(lastKernel) > time.Second {
			ksp := root.Start("reference kernel")
			kernel = append(kernel, refKernel())
			ksp.End()
			lastKernel = time.Now()
		}
		psp := root.Start("pass")
		psp.SetAttr("pass", p)
		if p%2 == 1 {
			rec.span = psp // every other pass of a traced run records its diagnoses
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, p0, before := cpuSeconds(), time.Now(), len(rec.lat)
		drv.pass(ctx, order, rec)
		inPasses += time.Since(p0)
		if verified := float64(len(rec.lat) - before); verified > 0 {
			passWall = append(passWall, time.Since(p0).Seconds()/verified)
			passCPU = append(passCPU, (cpuSeconds()-cpu0)/verified)
		}
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		psp.End()
		rec.span = nil
		done++
	}
	wall := time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	drv.finish(rec)

	for _, c := range rec.complaints {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", def.name, c)
	}
	ok := float64(len(rec.lat))
	if ok == 0 {
		return nil, fmt.Errorf("%s: no diagnosis succeeded", def.name)
	}
	res := &runResult{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed,
		Metrics: map[string]float64{}}
	m := res.Metrics
	if !cfg.trace {
		// Every timing is the best of its repeats: a diagnosis is the same
		// work in every pass and a pass the same work every time, and on a
		// shared machine interference only ever adds time. Medians spread
		// 20-40% from run to run in the machine's noisy spells, the best
		// of the repeats 6-19% (see README, "Noise").
		best := make([]float64, 0, len(rec.bestPlain))
		for _, b := range rec.bestPlain {
			best = append(best, b)
		}
		sort.Float64s(best)
		m["diagnose_mean_ms"] = sum(best) / float64(len(best))
		slowest := best[len(best)-(len(best)+9)/10:]
		m["diagnose_tail_ms"] = sum(slowest) / float64(len(slowest))
		m["diagnoses_per_s"] = 1 / slices.Min(passWall)
		m["cpu_s_per_diagnosis"] = slices.Min(passCPU)
		m["mem_mb_per_diagnosis"] = float64(allocated) / (1 << 20) / ok
		if len(coldRSS) > 0 {
			// The diagnoses ran in child processes: their memory is the
			// child's peak RSS, not this process's allocations. The mean,
			// because TPC-C and TATP processes form two clusters and the
			// median of 13 + 12 instances sits on the edge between them.
			m["mem_mb_per_diagnosis"] = sum(coldRSS) / float64(len(coldRSS))
		}
		m["repair_f1"] = rec.f1 / float64(rec.attempted)
		m["setup_s"] = median(setupS)
		fmt.Fprintf(os.Stderr, "%s: seed %d, %d instances, %d passes, %d timed samples, timed phase %.1fs, set-ups %.2fs\n",
			def.name, cfg.seed, n, done, len(rec.lat), wall.Seconds(), setupS)
		return res, nil
	}

	// Traced run: the per-layer table.
	rec.layers.report(m)
	m["harness.samples"] = ok
	m["harness.sample_p50_ms"] = percentile(rec.lat, 0.50)
	m["harness.sample_p90_ms"] = percentile(rec.lat, 0.90)
	m["harness.passes"] = float64(done)
	m["harness.build_s"] = cfg.buildS
	// The harness's own spans: per instance the fastest traced against
	// the fastest untraced diagnosis, so machine noise does not pass for
	// overhead.
	var plain, traced float64
	for id, t := range rec.bestTraced {
		plain += rec.bestPlain[id]
		traced += t
	}
	m["harness.trace_overhead_pct"] = 100 * ratio(traced-plain, plain)
	m["harness.client_cpu_share"] = 1 - ratio(rec.inCall.Seconds(), float64(drv.callers())*inPasses.Seconds())
	m["harness.ref_kernel_ms"] = median(kernel)
	rec.span = root.Start("probe")
	err = probeLayers(def.name, drv.instances(), rec, m)
	if err == nil {
		err = drv.probe(ctx, rec, m)
	}
	rec.span.End()
	if err != nil {
		return nil, fmt.Errorf("%s: layer probe: %w", def.name, err)
	}
	m["harness.manifest_count_drift"] = ratio(float64(len(rec.drifted)), float64(len(rec.counted)))
	root.End()
	if err := writeSpans(cfg.spans, root); err != nil {
		return nil, err
	}
	reportSelfTimes(def.name, root)
	return res, nil
}
