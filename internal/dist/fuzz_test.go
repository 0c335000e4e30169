package dist_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/dist"
)

// FuzzDecodeJob feeds arbitrary bytes to the worker's side of the wire:
// json.Unmarshal into a Job, then DecodeJob. A job that decodes must
// then solve to a repair or fail with an error; no frame a peer sends
// may panic the worker. The solve runs under tiny limits: what is
// checked is that it ends cleanly, not what it finds. The seed corpus
// holds a partition job of the loopback e2e fixture and the three
// malformed shapes of it that once panicked a worker.
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
		if rep, err := sub.SolveLocal(); err == nil && rep == nil {
			t.Fatal("SolveLocal returned neither a repair nor an error")
		}
	})
}
