package sched

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pools returns the two inputs every OnPool contract test must hold
// under: nil (a private pool per scan, closed by wait) and a shared
// resident 2-worker pool. The determinism contract — results
// adjudicated in submission order via per-job 1-buffered channels — is
// the same code either way, and these tests pin it.
func pools(t *testing.T) map[string]*Pool {
	t.Helper()
	p := NewPool(2)
	t.Cleanup(p.Close)
	return map[string]*Pool{"private": nil, "shared": p}
}

// With a single scan worker the start sequence is exactly the feed
// order, so the explicit order is observable deterministically.
func TestOnPoolStartsJobsInGivenOrder(t *testing.T) {
	for name, pool := range pools(t) {
		t.Run(name, func(t *testing.T) {
			order := []int{3, 1, 0, 2}
			var mu sync.Mutex
			var started []int
			results, wait := OnPool(pool, 1, 4, order, func(i int) int {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				return i * i
			})
			wait()
			if !reflect.DeepEqual(started, order) {
				t.Errorf("start order = %v, want %v", started, order)
			}
			// Adjudication stays in submission (index) order regardless of
			// the start order: results[i] always carries job i's result.
			for i := 0; i < 4; i++ {
				if got := <-results[i]; got != i*i {
					t.Errorf("results[%d] = %d, want %d", i, got, i*i)
				}
			}
		})
	}
}

// Nil order is the identity.
func TestOnPoolIdentityOrder(t *testing.T) {
	for name, pool := range pools(t) {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var started []int
			results, wait := OnPool(pool, 1, 5, nil, func(i int) int {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				return i
			})
			wait()
			if !reflect.DeepEqual(started, []int{0, 1, 2, 3, 4}) {
				t.Errorf("start order = %v, want identity", started)
			}
			for i := 0; i < 5; i++ {
				if got := <-results[i]; got != i {
					t.Errorf("results[%d] = %d, want %d", i, got, i)
				}
			}
		})
	}
}

// Every job must deliver exactly once even when the scan is wider than
// the job list or bounded below it — including when the scan width
// exceeds the shared pool's own worker count (jobs then queue on the
// pool but still all complete) — and a private pool is gone once wait
// returns.
func TestOnPoolDeliversAllJobs(t *testing.T) {
	for name, pool := range pools(t) {
		t.Run(name, func(t *testing.T) {
			live := mWorkers.Value()
			for _, workers := range []int{0, 1, 2, 7, 100} {
				results, wait := OnPool(pool, workers, 7, nil, func(i int) int { return i + 1 })
				wait()
				for i := 0; i < 7; i++ {
					if got := <-results[i]; got != i+1 {
						t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, got, i+1)
					}
				}
				if got := mWorkers.Value(); got != live {
					t.Errorf("workers=%d: %d pool goroutines live after wait, want %d", workers, got, live)
				}
			}
		})
	}
}

// Two scans interleaving on one pool each stay within their own
// `workers` share, however many pool workers sit idle.
func TestOnPoolShareBoundsInterleavedScans(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	type scan struct {
		share          int
		inflight, peak atomic.Int32
	}
	scans := []*scan{{share: 2}, {share: 1}}
	var waits []func()
	for _, s := range scans {
		_, wait := OnPool(p, s.share, 12, nil, func(int) struct{} {
			cur := s.inflight.Add(1)
			for old := s.peak.Load(); cur > old && !s.peak.CompareAndSwap(old, cur); old = s.peak.Load() {
			}
			// Stay in flight long enough for the other scan's jobs and
			// the idle pool workers to run.
			for k := 0; k < 50; k++ {
				runtime.Gosched()
			}
			s.inflight.Add(-1)
			return struct{}{}
		})
		waits = append(waits, wait)
	}
	for _, wait := range waits {
		wait()
	}
	for i, s := range scans {
		if got := int(s.peak.Load()); got < 1 || got > s.share {
			t.Errorf("scan %d: peak in-flight jobs = %d, want 1..%d", i, got, s.share)
		}
	}
}

// Close returns only after every job the pool accepted has run.
func TestPoolCloseWaitsForAcceptedJobs(t *testing.T) {
	p := NewPool(2)
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	var finished atomic.Int32
	results, _ := OnPool(p, 2, 2, nil, func(i int) int {
		started <- struct{}{}
		<-gate
		finished.Add(1)
		return i
	})
	// Both jobs are on pool workers: the feeder has nothing left to send.
	<-started
	<-started
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	for k := 0; k < 100; k++ {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while accepted jobs were still running")
	default:
	}
	close(gate)
	<-closed
	if got := finished.Load(); got != 2 {
		t.Errorf("Close returned with %d of 2 jobs finished", got)
	}
	for i := range results {
		if got := <-results[i]; got != i {
			t.Errorf("results[%d] = %d, want %d", i, got, i)
		}
	}
}
