// Package sched holds the worker primitives shared by every layer
// that fans work out over goroutines: the core partition scan and the
// milp parallel branch-and-bound. It is a
// leaf package — core imports encode imports milp, so the scheduler must
// live below all of them.
package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide gauges on obs.Default(): how many scheduler jobs are
// waiting to start and how many scheduler goroutines are live right
// now. Updated with one atomic op per job/worker transition — invisible
// next to the MILP solves the jobs carry.
var (
	mQueueDepth = obs.Default().Gauge("qfix_sched_queue_depth",
		"Scheduler jobs submitted but not yet started, across all active scans.")
	mWorkers = obs.Default().Gauge("qfix_sched_workers",
		"Live scheduler goroutines (scan workers and Workers).")
)

// Pool is kept for benchmark/; ROADMAP 2(d) deletes it. Every scan runs
// on goroutines of its own (OnPool), so a Pool holds nothing.
type Pool struct{}

// NewPool is kept for benchmark/; ROADMAP 2(d) deletes it.
func NewPool(int) *Pool { return &Pool{} }

// Close is kept for benchmark/; ROADMAP 2(d) deletes it.
func (*Pool) Close() {}

// OnPool runs jobs 0..n-1 on min(workers, n) goroutines of the scan's
// own, which claim jobs in `order` from one shared cursor (nil means
// 0..n-1; otherwise it must be a permutation of 0..n-1): the partition
// scan passes its largest-first order here so the biggest MILP is never
// stuck behind the others defining the critical path. The pool argument
// is ignored (kept for benchmark/; ROADMAP 2(d) deletes it).
//
// Every job gets its own 1-buffered result channel, so the consumer can
// adjudicate results in SUBMISSION order (index order, not start order)
// while later jobs are still running — the property the callers rely on
// for determinism: whichever job finishes first, whatever order the
// scan started them in and whichever goroutine ran which job, the
// *choice* among results is made in a fixed order. Jobs that want to
// stop early (e.g. partitions past the diagnosis's deadline) check their
// own cancellation inside job; the scheduler itself never drops a slot.
//
// wait blocks until every job has delivered its result and the scan's
// goroutines are gone.
func OnPool[R any](_ *Pool, workers, n int, order []int, job func(i int) R) (results []chan R, wait func()) {
	results = make([]chan R, n)
	for i := range results {
		results[i] = make(chan R, 1)
	}
	var next atomic.Int64
	mQueueDepth.Add(int64(n))
	wait = Workers(min(max(workers, 1), n), func(int) {
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			i := k
			if order != nil {
				i = order[k]
			}
			mQueueDepth.Add(-1)
			results[i] <- job(i)
		}
	})
	return results, wait
}

// Workers starts fn on n goroutines (worker ids 0..n-1) and returns a
// function that blocks until all of them return. It is the open-ended
// counterpart to OnPool for workers that pull work from shared state
// rather than a job list — the speculative LP workers of the parallel
// branch-and-bound search claim nodes off the search's own heap.
func Workers(n int, fn func(worker int)) (wait func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		mWorkers.Add(1)
		go func(id int) {
			defer wg.Done()
			defer mWorkers.Add(-1)
			fn(id)
		}(w)
	}
	return wg.Wait
}
