package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sched"
	"repro/internal/sqlparse"
)

// probeLayers calls each engine layer's public function on every
// instance of the run, one at a time, under that instance's diagnosis
// span: the same inputs the workload diagnosed, taken apart. It fills
// the layer metrics that Repair.Stats does not carry.
func probeLayers(wl string, insts []*instance, rec *recorder, m map[string]float64) error {
	var (
		stmts, batches                    int
		parse, replay, extend, enc, solve time.Duration
		rootSolve, unaccounted            time.Duration
		plain, traced                     time.Duration
		encAlloc                          uint64
		iters                             int
		statsFromProbe                    = rec.layers.n == 0 // the CLI returns no Stats
		inProcess                         layerSums           // Stats of the in-process diagnoses below
	)
	for k, in := range insts {
		sp := rec.begin(in)
		d0, log := in.in.W.D0, in.in.Dirty
		width := in.schema.Width()
		text := strings.Join(in.sql, ";\n")
		stmts += len(log)

		var err error
		parse += timed(sp, "sqlparse.ParseLog", func() { _, err = sqlparse.ParseLog(in.schema, text) })
		if err != nil {
			sp.End()
			return fmt.Errorf("%v: %w", in.spec, err)
		}
		replay += timed(sp, "query.Replay", func() { _, err = query.Replay(log, d0) })
		if err != nil {
			sp.End()
			return fmt.Errorf("%v: %w", in.spec, err)
		}
		var prefix []query.AttrSet
		timed(sp, "core.FullImpact", func() { prefix = core.FullImpact(log[:len(log)-1], width) })
		extend += timed(sp, "core.ExtendFullImpact", func() { core.ExtendFullImpact(prefix, log, width) })

		// The batch that holds the repair: the corrupted query
		// parameterized, the complaint tuples encoded (tuple slicing).
		// A multi-cluster instance contributes its first cluster.
		if eopt, complaints := repairBatch(in); len(complaints) > 0 {
			var res, res2 *encode.Result
			var a0, a1 runtime.MemStats
			runtime.ReadMemStats(&a0)
			enc += timed(sp, "encode.Encode", func() { res, err = encode.Encode(d0, log, complaints, eopt) })
			runtime.ReadMemStats(&a1)
			if err == nil {
				// Solved separately below, so neither solve sees a model
				// the other has touched.
				res2, err = encode.Encode(d0, log, complaints, eopt)
			}
			if err != nil {
				sp.End()
				return fmt.Errorf("%v: %w", in.spec, err)
			}
			encAlloc += a1.TotalAlloc - a0.TotalAlloc
			batches++
			rootSolve += timed(sp, "encode.Result.SolveOpts(root)", func() {
				res2.SolveOpts(milp.Options{TimeLimit: time.Minute, MaxNodes: 1})
			})
			var mres milp.Result
			solve += timed(sp, "encode.Result.SolveOpts", func() {
				mres, _ = res.SolveOpts(milp.Options{TimeLimit: time.Minute})
			})
			iters += mres.LPIters
		}

		// The whole diagnosis in process, untraced and with the engine's
		// own tracing on: twice each, alternating which goes first, the
		// faster of each kept (a slow spell of the machine must not pass
		// for tracing overhead).
		var wall, withTrace time.Duration
		var rep *core.Repair // of the diagnosis that took `wall`
		for round := 0; round < 4 && err == nil; round++ {
			opt := diagOptions(wl)
			tracing := (k+round)%2 == 1
			if tracing {
				opt.Trace = obs.NewTrace("probe")
			}
			var r *core.Repair
			d := timed(sp, "core.Diagnose", func() { r, err = core.Diagnose(d0, log, in.in.Complaints, opt) })
			opt.Trace.End()
			switch {
			case tracing && (withTrace == 0 || d < withTrace):
				withTrace = d
			case !tracing && (wall == 0 || d < wall):
				wall, rep = d, r
			}
		}
		if err != nil {
			sp.End()
			return fmt.Errorf("%v: %w", in.spec, err)
		}
		plain += wall
		traced += withTrace
		unaccounted += wall - accounted(&rep.Stats)
		inProcess.add(&rep.Stats)
		rec.noteStats(in, &rep.Stats, true)
		if statsFromProbe {
			rec.noteStats(in, &rep.Stats, false)
		}
		sp.End()
	}
	n := float64(len(insts))
	m["sqlparse.parse_us_per_stmt"] = ratio(us(parse), float64(stmts))
	m["query.replay_ms"] = ms(replay) / n
	m["query.replay_stmts"] = float64(stmts) / n
	m["core.impact_extend_us"] = us(extend) / n
	m["core.unaccounted_ms"] = ms(unaccounted) / n
	m["encode.encode_ms_per_batch"] = ratio(ms(enc), float64(batches))
	m["encode.alloc_kb_per_batch"] = ratio(float64(encAlloc)/1024, float64(batches))
	m["milp.solve_ms"] = ms(solve) / n
	m["milp.root_ms"] = ms(rootSolve) / n
	m["simplex.us_per_lp_iter"] = ratio(us(solve), float64(iters))
	m["obs.trace_overhead_pct"] = 100 * ratio(traced.Seconds()-plain.Seconds(), plain.Seconds())
	if statsFromProbe {
		rec.layers.report(m)
	}
	m["sched.pool_dispatch_us"] = poolDispatch(rec.span)
	share := func(d time.Duration) float64 { return 100 * ratio(d.Seconds(), plain.Seconds()) }
	fmt.Fprintf(os.Stderr, "%s: in-process diagnosis %.2f ms mean: plan %.1f%% encode %.1f%% solve %.1f%% merge %.1f%% unaccounted %.1f%%\n",
		wl, ms(plain)/n, share(inProcess.plan), share(inProcess.encode), share(inProcess.solve),
		share(inProcess.merge), share(unaccounted))
	return nil
}

// accounted is the part of a diagnosis' wall clock its phase timers
// cover. Partitions solve concurrently and their timers add up across
// partitions, so there the partition phase counts as long as its
// slowest member took from scheduling to result.
func accounted(st *core.Stats) time.Duration {
	if len(st.PartitionStats) == 0 {
		return st.PlanTime + st.EncodeTime + st.SolveTime + st.MergeTime
	}
	var slowest time.Duration
	for _, p := range st.PartitionStats {
		if d := p.QueueWait + p.Solve; d > slowest {
			slowest = d
		}
	}
	return st.PlanTime + slowest + st.MergeTime
}

// repairBatch is the encoding the diagnosis ends on.
func repairBatch(in *instance) (encode.Options, []encode.Complaint) {
	corrupt := in.in.CorruptIdx[0]
	var complaints []encode.Complaint
	var ids []int64
	for _, c := range in.in.Complaints {
		if in.spec.Kind == "clusters" && c.TupleID > int64(in.spec.Rows) {
			continue // another cluster's tuple
		}
		complaints = append(complaints, encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values})
		ids = append(ids, c.TupleID)
	}
	return encode.Options{ParamQueries: map[int]bool{corrupt: true}, TupleIDs: ids}, complaints
}

// poolDispatch times handing trivial jobs to a resident sched.Pool and
// collecting their results: the scheduler's own cost per job.
func poolDispatch(parent *obs.Span) float64 {
	const jobs = 2000
	pool := sched.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	d := timed(parent, "sched.OnPool", func() {
		results, wait := sched.OnPool(pool, runtime.GOMAXPROCS(0), jobs, nil, func(i int) int { return i })
		for _, ch := range results {
			<-ch
		}
		wait()
	})
	return us(d) / jobs
}
