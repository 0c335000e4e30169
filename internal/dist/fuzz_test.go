package dist_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// FuzzDecodeJob feeds arbitrary bytes to the worker's side of the wire:
// json.Unmarshal into a Job (a solve request), then DecodeJob. A job
// that decodes must then solve to a repair or fail with an error; no
// frame a peer sends may panic the worker. The solve runs under tiny
// limits: what is checked is that it ends cleanly, not what it finds.
// The seed corpus holds a partition solve of the loopback e2e fixture,
// the three malformed shapes of it that once panicked a worker, and the
// same solve naming its body instead of carrying it, which DecodeJob
// refuses.
func FuzzDecodeJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		var job dist.Job
		if json.Unmarshal(frame, &job) != nil {
			return
		}
		sub, err := dist.DecodeJob(&job)
		if err != nil {
			return
		}
		sub.Options.TimeLimit = 20 * time.Millisecond
		sub.Options.TotalTimeLimit = 100 * time.Millisecond
		sub.Options.MaxNodes = 20
		// How many LP goroutines a solve may start is a question of the
		// worker's resources, not of decoding.
		sub.Options.SolverParallel = 0
		if rep, err := core.Diagnose(sub.D0, sub.Log, sub.Complaints, sub.Options); err == nil && rep == nil {
			t.Fatal("Diagnose returned neither a repair nor an error")
		}
	})
}

// FuzzDecodeResult feeds arbitrary bytes to the coordinator's side of
// the wire: every job of a two-partition diagnosis is answered with the
// frame, json.Unmarshal'd into a Result. Diagnose must then return a
// repair or an error; no frame a worker sends may panic the
// coordinator. The seed corpus holds a result frame a loopback worker
// sent for this instance — the parameters of the statements it changed
// — and the malformed shapes of it the coordinator must reject before
// the partition merge indexes them: a changed index past the log or
// below it, a parameter vector count that is not the changed count, and
// a vector of the wrong arity for its statement.
func FuzzDecodeResult(f *testing.F) {
	d0, log, complaints := benchInstance(f, 2)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var res dist.Result
		if json.Unmarshal(frame, &res) != nil {
			return
		}
		// Every job gets the same Result; the coordinator only reads it.
		coord := dist.NewCoordinator(dist.Config{}, answerTransport(func(*dist.Job) *dist.Result {
			return &res
		}))
		defer coord.Close()
		if rep, err := coord.Diagnose(d0, log, complaints, partitionOpts()); err == nil && rep == nil {
			t.Fatal("Diagnose returned neither a repair nor an error")
		}
	})
}
