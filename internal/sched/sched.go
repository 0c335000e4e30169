// Package sched holds the worker-pool primitives shared by every layer
// that fans work out over goroutines: the core partition scan and the
// milp parallel branch-and-bound. It is a
// leaf package — core imports encode imports milp, so the scheduler must
// live below all of them.
package sched

import (
	"sync"

	"repro/internal/obs"
)

// Process-wide gauges on obs.Default(): how many scheduler jobs are
// waiting in feeds and how many pool goroutines are live right now.
// Updated with one atomic op per job/worker transition — invisible next
// to the MILP solves the jobs carry.
var (
	mQueueDepth = obs.Default().Gauge("qfix_sched_queue_depth",
		"Scheduler jobs submitted but not yet started, across all active pools.")
	mWorkers = obs.Default().Gauge("qfix_sched_workers",
		"Live scheduler goroutines (Pool workers and Workers).")
)

// Pool is a worker pool: a fixed set of goroutines draining one shared
// run queue until Close. A resident service (internal/qfixd) creates
// one, shares it via core.Options.Scheduler, and thereby bounds the
// process's total solve concurrency at its worker count while each
// scan's OnPool call still bounds that scan's share; a one-shot
// diagnosis lets OnPool make a private pool for the scan.
//
// Close-after-drain contract: Submit after Close panics. Owners stop
// feeding work (drain their in-flight diagnoses) before closing; the
// qfixd server's graceful drain is exactly that sequence.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// NewPool starts a pool of n workers (n < 1 picks 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{jobs: make(chan func())}
	for w := 0; w < n; w++ {
		p.wg.Add(1)
		mWorkers.Add(1)
		go func() {
			defer p.wg.Done()
			defer mWorkers.Add(-1)
			// Workers live until Close closes the queue. The pool's
			// cancellation contract lives in the jobs, not the plumbing:
			// jobs that should stop early check their own flag/deadline.
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Close stops the pool: no further submissions are accepted and the
// call blocks until every queued job has run. Callers must have stopped
// feeding scans first (see the type comment).
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// OnPool fans jobs 0..n-1 out over p with at most `workers` of them in
// flight at once (the scan's share of the pool). order[k] is the k-th
// job index handed to the pool (nil means 0..n-1; otherwise it must be
// a permutation of 0..n-1): the partition scan passes its largest-first
// order here so the biggest MILP is never stuck behind the queue
// defining the critical path. A nil p runs the scan on a private pool
// of min(workers, n) goroutines that wait closes.
//
// Every job gets its own 1-buffered result channel, so the consumer can
// adjudicate results in SUBMISSION order (index order, not start order)
// while later jobs are still running — the property the callers rely on
// for determinism: whichever job finishes first, whatever order the
// pool started them in, whichever pool worker ran which job and however
// jobs from concurrent scans interleave on a shared queue, the
// *choice* among results is made in a fixed order. Jobs that want to
// stop early (e.g. partitions past the diagnosis's deadline) check their
// own cancellation inside job; the scheduler itself never drops a slot.
//
// wait blocks until every job has delivered its result. (A generic
// method is not expressible on Pool, hence the package-level function.)
func OnPool[R any](p *Pool, workers, n int, order []int, job func(i int) R) (results []chan R, wait func()) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	results = make([]chan R, n)
	for i := range results {
		results[i] = make(chan R, 1)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	wait = wg.Wait
	if p == nil {
		p = NewPool(workers)
		wait = func() {
			wg.Wait()
			p.Close()
		}
	}
	share := make(chan struct{}, workers)
	mQueueDepth.Add(int64(n))
	go func() {
		// The feeder blocks on the scan's share semaphore, then on the
		// pool queue; both drain monotonically (every job releases its
		// share token and every submitted job runs), so feeding cannot
		// wedge. Jobs own cancellation, as everywhere in this package.
		feed := func(i int) {
			share <- struct{}{}
			p.jobs <- func() {
				mQueueDepth.Add(-1)
				results[i] <- job(i)
				<-share
				wg.Done()
			}
		}
		if order == nil {
			for i := 0; i < n; i++ {
				feed(i)
			}
		} else {
			for _, i := range order {
				feed(i)
			}
		}
	}()
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
