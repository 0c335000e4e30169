package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frameconn"
	"repro/internal/lru"
)

// Server is the worker side of the protocol: it accepts connections,
// reads jobs (newline-delimited JSON), solves them on the local engine,
// and writes results. A connection may carry any number of jobs; up to
// MaxInflight jobs across the whole server solve concurrently and each
// result is written the moment its solve lands — possibly out of
// submission order: the coordinator's MuxTransport matches results to
// jobs by ID. Each connection holds the last bodySlots bodies its jobs
// carried, decoded once, for the jobs that name them.
type Server struct {
	// MaxTimeLimit, when positive, caps the per-solve and total time
	// limits of incoming jobs — a fleet operator's guard against a
	// coordinator requesting unbounded solves.
	MaxTimeLimit time.Duration
	// MaxInflight bounds how many jobs solve concurrently across the
	// whole server — one shared pool, however many connections the
	// jobs arrive on — so the operator's bound holds however many
	// coordinators connect.
	// Admission stops reading a connection's further frames until a
	// slot frees. Zero picks runtime.GOMAXPROCS; negative forces one
	// solve at a time server-wide.
	MaxInflight int
	// Logf, when set, receives one line per job and per protocol error.
	Logf func(format string, args ...any)

	conns  frameconn.Registry
	mu     sync.Mutex
	sem    chan struct{}     // guarded by mu — server-wide solve slots (MaxInflight)
	impact *core.ImpactCache // guarded by mu — one impact cache for every job the server solves
}

// Serve accepts and handles connections on l until Close or a fatal
// listener error. It blocks; run it in a goroutine to serve in the
// background.
func (s *Server) Serve(l net.Listener) error { return s.conns.Serve(l, s.handle) }

// Close stops accepting and tears down in-flight connections. Jobs being
// solved are abandoned; their coordinators observe a broken connection
// and fall back.
func (s *Server) Close() error { return s.conns.Close() }

// handle serves one connection: a read loop resolves each job's body
// and admits the job into the server-wide solver pool, and results
// stream back as they land. A line past frameconn.MaxFrame ends the
// connection like any other bad frame; its coordinator retries the job
// elsewhere or solves it locally.
func (s *Server) handle(conn net.Conn) {
	var wg sync.WaitGroup
	defer wg.Wait() // let in-flight solves write (or fail) before teardown
	sem, impact := s.solveSem(), s.impactCache()
	bodies := lru.New[uint64, *body](bodySlots)
	r := frameconn.NewReader(conn)
	w := frameconn.NewWriter(conn, true)
	for {
		job := new(Job)
		if err := r.Decode(job); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("dist: %s: bad frame: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// The attempt window anchors ON THIS CLOCK at the moment the
		// frame was read, so the slot wait below counts against it
		// without any cross-machine clock agreement; solveJob refuses
		// the job if the window has closed by the time a slot frees.
		// (Time a frame spent unread in the socket buffer is uncounted:
		// the blocking read loop is deliberate backpressure, and the
		// coordinator's write deadline bounds that side.)
		arrival := time.Now()
		b := resolveBody(bodies, job)
		mWorkerQueueDepth.Add(1)
		sem <- struct{}{} // admission: at most MaxInflight concurrent solves
		mWorkerQueueDepth.Add(-1)
		mWorkerJobs.Inc()
		mWorkerInflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mWorkerInflight.Add(-1)
			defer func() { <-sem }()
			ctx := context.Background()
			if job.AttemptTTLNS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx,
					arrival.Add(time.Duration(job.AttemptTTLNS)))
				defer cancel()
			}
			start := time.Now()
			s.capLimits(job)
			res := solveJob(ctx, job, b, impact)
			elapsed := time.Since(start)
			mWorkerJobSeconds.Observe(elapsed.Seconds())
			s.logf("dist: job %d from %s: complaints=%d resolved=%v err=%q %s (%v)",
				job.ID, conn.RemoteAddr(), len(job.Complaints), res.Resolved,
				res.Err, res.Stats.Brief(), elapsed.Round(time.Millisecond))
			// A failed write has closed the connection: the coordinator
			// retries now instead of waiting out its attempt timeout.
			if err := w.Encode(res); err != nil {
				s.logf("dist: %s: writing result %d: %v", conn.RemoteAddr(), job.ID, err)
			}
		}()
	}
}

// resolveBody applies one frame to its connection's body table and
// returns the job's body. It runs for every frame in read order,
// before admission and before any refusal, because the coordinator
// moves its copy of the table the same way in write order: a carried
// body takes a slot (even one that fails to decode, so the next job
// naming it gets the same error), and a named one is marked used. A
// frame naming a body the connection does not hold gets an error body;
// its coordinator retries the job elsewhere.
func resolveBody(bodies *lru.Map[uint64, *body], job *Job) *body {
	if job.D0 != nil {
		mWorkerCacheMisses.Inc()
		b := decodeBody(job)
		bodies.Put(job.Body, b)
		return b
	}
	if b, ok := bodies.Get(job.Body); ok {
		mWorkerCacheHits.Inc()
		return b
	}
	return &body{err: fmt.Errorf("dist: job %d names body %d, which this connection does not hold",
		job.ID, job.Body)}
}

// solveSem lazily builds the server-wide solver-slot semaphore sized
// per MaxInflight.
func (s *Server) solveSem() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sem == nil {
		n := s.MaxInflight
		switch {
		case n < 0:
			n = 1
		case n == 0:
			n = runtime.GOMAXPROCS(0)
		}
		s.sem = make(chan struct{}, n)
	}
	return s.sem
}

// impactCache lazily builds the server's impact cache.
func (s *Server) impactCache() *core.ImpactCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.impact == nil {
		s.impact = core.NewImpactCache(0)
	}
	return s.impact
}

// capLimits clamps the job's solver budgets to the server's policy and
// its solver parallelism to this machine's width: a repair is the same
// at any width, and a job asking for 1<<20 LP workers would get them.
func (s *Server) capLimits(job *Job) {
	job.Options.SolverParallel = min(job.Options.SolverParallel, runtime.GOMAXPROCS(0))
	if s.MaxTimeLimit <= 0 {
		return
	}
	max := int64(s.MaxTimeLimit)
	if job.Options.TimeLimitNS <= 0 || job.Options.TimeLimitNS > max {
		job.Options.TimeLimitNS = max
	}
	if job.Options.TotalTimeLimitNS <= 0 || job.Options.TotalTimeLimitNS > max {
		job.Options.TotalTimeLimitNS = max
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
