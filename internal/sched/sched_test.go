package sched

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/testcheck"
)

// The determinism contract — results adjudicated in submission order
// via per-job 1-buffered channels — is pinned here, and by core's
// TestSolverParallelMatchesSequential end to end. Each test runs under
// the subtest "private": every scan runs on goroutines of its own (the
// nil pool), the one scan mode OnPool has.

// With a single scan worker the start sequence is exactly the claim
// order, so the explicit order is observable deterministically.
func TestOnPoolStartsJobsInGivenOrder(t *testing.T) {
	t.Run("private", func(t *testing.T) {
		order := []int{3, 1, 0, 2}
		var mu sync.Mutex
		var started []int
		results, wait := OnPool(nil, 1, 4, order, func(i int) int {
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

// Nil order is the identity.
func TestOnPoolIdentityOrder(t *testing.T) {
	t.Run("private", func(t *testing.T) {
		var mu sync.Mutex
		var started []int
		results, wait := OnPool(nil, 1, 5, nil, func(i int) int {
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

// Every job must deliver exactly once even when the scan is wider than
// the job list or bounded below it, and the scan's goroutines are gone
// once wait returns.
func TestOnPoolDeliversAllJobs(t *testing.T) {
	t.Run("private", func(t *testing.T) {
		live := mWorkers.Value()
		for _, workers := range []int{0, 1, 2, 7, 100} {
			results, wait := OnPool(nil, workers, 7, nil, func(i int) int { return i + 1 })
			wait()
			for i := 0; i < 7; i++ {
				if got := <-results[i]; got != i+1 {
					t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, got, i+1)
				}
			}
			if got := mWorkers.Value(); got != live {
				t.Errorf("workers=%d: %d scheduler goroutines live after wait, want %d", workers, got, live)
			}
		}
	})
}

// wait ends every goroutine the package started: a scan's workers and
// Workers'.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	results, wait := OnPool(nil, 3, 8, nil, func(i int) int { return i })
	wait()
	for i := range results {
		<-results[i]
	}
	_, wait = OnPool(nil, 2, 0, nil, func(i int) int { return i })
	wait()
	Workers(3, func(int) {})()
	testcheck.Goroutines(t, base)
}
