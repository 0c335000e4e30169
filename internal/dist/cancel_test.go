package dist_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/testcheck"
)

// The cancellation test: a job stuck on a worker that never answers
// ends when its context does, within the budget plus slack, and
// whatever the transport started is gone once it is closed. (A job that
// reaches a worker past its attempt window is
// TestDispatchStampsAttemptDeadline's.)

// cancelGuard bounds how long a call under an ended context may take
// before the test calls it hung.
const cancelGuard = 10 * time.Second

// oneJob is a job carrying the one-cluster partition bench instance.
func oneJob(t *testing.T) *dist.Job {
	t.Helper()
	d0, log, complaints := benchInstance(t, 1)
	job, err := dist.EncodeJob(1, core.Subproblem{D0: d0, Log: log, Complaints: complaints, Options: partitionOpts()})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestTransportHonorsCancel sends a job to a worker that never answers,
// under a context that is cancelled and has no deadline, so no socket
// deadline can end the wait: over both the dial-per-job and the mux
// transport, Do must return the context's error.
func TestTransportHonorsCancel(t *testing.T) {
	for _, mux := range []bool{false, true} {
		base := runtime.NumGoroutine()
		t.Run(fmt.Sprintf("mux=%v", mux), func(t *testing.T) {
			addr := startBlackHoleWorker(t)
			var tr dist.Transport = dist.Dial(addr)
			if mux {
				tr = dist.DialMux(addr)
			}
			defer tr.Close()
			job := oneJob(t)
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			done := make(chan error, 1)
			go func() {
				_, err := tr.Do(ctx, job)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("Do on a cancelled job = %v, want context.Canceled", err)
				}
			case <-time.After(cancelGuard):
				t.Fatalf("Do still waiting %v after its context was cancelled", cancelGuard)
			}
		})
		testcheck.Goroutines(t, base)
	}
}
