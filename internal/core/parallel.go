package core

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// incrementalParallel runs the Inc_k batch scan with Options.Parallel
// workers on the shared scheduler (sched.OnPool). Batches are independent
// MILPs, so they solve concurrently; the *choice* stays deterministic
// and identical to the sequential scan: batches are adjudicated in
// newest-first order, the first clean repair wins, and the
// least-damaging resolved repair is the fallback. Workers that are
// still pending behind an accepted result are abandoned (their
// statistics still count).
//
// This addresses the paper's closing direction ("we plan to investigate
// additional methods of scaling the constraint analysis") with the
// natural Go construction; partition.go layers the complaint-level
// decomposition on the same scheduler.
func (d *diagnoser) incrementalParallel() (*Repair, error) {
	cands := append([]int(nil), d.candidates...)
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
	k := d.opt.K
	var batches [][]int
	for start := 0; start < len(cands); start += k {
		end := start + k
		if end > len(cands) {
			end = len(cands)
		}
		batches = append(batches, cands[start:end])
	}
	if len(batches) == 0 {
		return d.unresolved(), nil
	}

	// Batch spans are pre-created in index order by this (coordinating)
	// goroutine, so the trace's top-level shape is fixed before any
	// worker runs; each worker fills in only its own subtree. Which
	// batches end up skipped still depends on timing — the determinism
	// pin covers -solver-parallel, not the batch scan.
	bspans := make([]*obs.Span, len(batches))
	for bi := range batches {
		bspans[bi] = d.span.Start("batch")
		bspans[bi].SetAttr("queries", len(batches[bi]))
	}

	type outcome struct {
		repaired verified // nil log: no solution for this batch
		err      error
		stats    Stats
	}
	var stop atomic.Bool
	results, wait := sched.OnPool(d.opt.Scheduler, d.opt.Parallel, len(batches), nil, func(bi int) outcome {
		defer bspans[bi].End()
		var st Stats
		if stop.Load() || (!d.deadline.IsZero() && time.Now().After(d.deadline)) {
			st.LastStatus = "skipped"
			return outcome{stats: st}
		}
		batch := batches[bi]
		paramSet := make(map[int]bool, len(batch))
		for _, qi := range batch {
			paramSet[qi] = true
		}
		var v verified
		repaired, ok, err := d.attempt(d.log, d.bound, paramSet, nil, &st, bspans[bi])
		if err == nil && ok {
			v = d.maybeRefine(repaired, paramSet, &st, bspans[bi])
		}
		return outcome{repaired: v, err: err, stats: st}
	})

	// Adjudicate in order; merge worker statistics as they arrive. The
	// status of the batch that produces the returned repair is pinned
	// after the scan: late-arriving workers (typically "skipped" ones
	// abandoned behind the accepted result) must not clobber the
	// decisive solver status.
	var fallback *Repair
	fallbackDamage := 0
	fallbackStatus := ""
	var firstErr error
	decided := false
	var winner *Repair
	winnerStatus := ""
	// Every scheduled job delivers exactly one outcome into its own
	// 1-buffered channel, even when skipped, so each receive completes;
	// cancellation lives in the jobs (stop flag + deadline checks) and
	// the merge MUST drain all of them for deterministic stats.
	//qfix:ctx-ok receives always complete: jobs deliver even when skipped; jobs own cancellation
	for bi := range batches {
		out := <-results[bi]
		d.mergeStats(out.stats)
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		if decided || out.repaired.log == nil {
			continue
		}
		rep := d.finish(out.repaired)
		if !rep.Resolved {
			continue
		}
		damage := d.damage(out.repaired)
		if damage == 0 {
			winner = rep
			winnerStatus = out.stats.LastStatus
			decided = true
			stop.Store(true) // later (older) batches need not start
			continue
		}
		if fallback == nil || damage < fallbackDamage ||
			(damage == fallbackDamage && rep.Distance < fallback.Distance) {
			fallback, fallbackDamage = rep, damage
			fallbackStatus = out.stats.LastStatus
		}
	}
	wait()

	if firstErr != nil && winner == nil && fallback == nil {
		return nil, firstErr
	}
	if winner != nil {
		if winnerStatus != "" {
			d.stats.LastStatus = winnerStatus
		}
		winner.Stats = d.stats
		return winner, nil
	}
	if fallback != nil {
		if fallbackStatus != "" {
			d.stats.LastStatus = fallbackStatus
		}
		fallback.Stats = d.stats
		return fallback, nil
	}
	return d.unresolved(), nil
}

// mergeStats folds a worker's statistics into the shared totals. Called
// only from the adjudication goroutine.
func (d *diagnoser) mergeStats(st Stats) {
	d.stats.Rows += st.Rows
	d.stats.Vars += st.Vars
	d.stats.Binaries += st.Binaries
	d.stats.BatchesTried += st.BatchesTried
	d.stats.Nodes += st.Nodes
	d.stats.LPIters += st.LPIters
	d.stats.Refactorizations += st.Refactorizations
	d.stats.PresolvedRows += st.PresolvedRows
	d.stats.LPNumFails += st.LPNumFails
	d.stats.LPIterLimits += st.LPIterLimits
	d.stats.EncodeTime += st.EncodeTime
	d.stats.SolveTime += st.SolveTime
	d.stats.PlanTime += st.PlanTime
	d.stats.MergeTime += st.MergeTime
	d.stats.VerifyTime += st.VerifyTime
	d.stats.Replays += st.Replays
	d.stats.PlanPasses += st.PlanPasses
	d.stats.RemoteJobs += st.RemoteJobs
	d.stats.StreamedResults += st.StreamedResults
	d.stats.ImpactCacheHits += st.ImpactCacheHits
	d.stats.ImpactCacheExtends += st.ImpactCacheExtends
	d.stats.WorkerCacheHits += st.WorkerCacheHits
	d.stats.ImpactTime += st.ImpactTime
	if st.Refined {
		d.stats.Refined = true
	}
	if st.Partitions > d.stats.Partitions {
		d.stats.Partitions = st.Partitions
	}
	if st.PartitionFallback {
		d.stats.PartitionFallback = true
	}
	if st.LastStatus != "" {
		d.stats.LastStatus = st.LastStatus
	}
}
