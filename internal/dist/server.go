package dist

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frameconn"
	"repro/internal/lru"
)

// Server is the serving end of the wire. Serve makes it a worker, which
// answers ping and solve: up to MaxInflight solves run at once across
// the server, each answered as it lands, and each connection holds the
// last bodySlots bodies its solves carried, each decoded and planned
// once (core.Subproblem.Plan) for every solve over it. ServeOps
// makes it a daemon, which answers ping and its tenant ops (diagnose
// runs concurrently, the others in the read loop) and refuses solve:
// the daemon's own admission bounds the work it takes on.
type Server struct {
	// MaxTimeLimit, when positive, caps the per-solve and total time
	// limits of incoming solves.
	MaxTimeLimit time.Duration
	// MaxInflight bounds the solves running at once across the server;
	// a connection's read loop waits for a slot. Zero picks
	// runtime.GOMAXPROCS; negative forces one at a time.
	MaxInflight int
	// Logf, when set, receives one line per solve and per protocol error.
	Logf func(format string, args ...any)

	conns frameconn.Registry
	mu    sync.Mutex
	sem   chan struct{} // guarded by mu — server-wide solve slots (MaxInflight)
}

// Ops are a daemon's tenant operations (internal/qfixd's Service).
// Answer returns a diagnose's answer frame from its "id" value on.
type Ops interface {
	Create(tenant, table, key string, attrs []string, rows [][]float64) error
	Append(tenant string, sql []string) (int, error)
	Complain(tenant string, complaints []core.Complaint) (int, error)
	Checkpoint(tenant string) error
	Stats(tenant string) (int, *TenantStats, error)
	Answer(ctx context.Context, req *Request) ([]byte, error)
}

// Serve accepts and handles connections on l until Close or a fatal
// listener error. It blocks.
func (s *Server) Serve(l net.Listener) error { return s.ServeOps(l, nil) }

// ServeOps is Serve for a daemon: the tenant ops go to ops.
func (s *Server) ServeOps(l net.Listener, ops Ops) error {
	return s.conns.Serve(l, func(conn net.Conn) { s.handle(conn, ops) })
}

// StopAccepting closes the listener and leaves the connections being
// served alone.
func (s *Server) StopAccepting() error { return s.conns.StopAccepting() }

// Close stops accepting and tears down every connection, abandoning
// the work in flight (a coordinator falls back).
func (s *Server) Close() error { return s.conns.Close() }

// handle serves one connection: its read loop answers each frame or
// starts the goroutine that will. A line past frameconn.MaxFrame, or
// one that is not JSON, ends the connection, and with it the context
// of its queued diagnoses.
func (s *Server) handle(conn net.Conn, ops Ops) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait() // work in flight writes (or fails) before teardown
	}()
	bodies := lru.New[uint64, *body](bodySlots)
	r, w := frameconn.NewReader(conn), frameconn.NewWriter(conn)
	// A failed write has closed the connection, ending this loop too.
	logFailed := func(err error) {
		if err != nil {
			s.logf("dist: %s: writing response: %v", conn.RemoteAddr(), err)
		}
	}
	write := func(resp *Response) {
		resp.Version = WireVersion
		logFailed(w.Encode(resp))
	}
	for {
		req := new(Request)
		line, err := r.Next()
		if err == nil {
			err = json.Unmarshal(line, req)
		}
		// A frame of another generation may not fit a Request; validate
		// answers it with its version error all the same.
		if _, ok := err.(*json.UnmarshalTypeError); ok && req.Version != WireVersion {
			err = nil
		}
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("dist: %s: bad frame: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := req.validate(line); err != nil {
			write(&Response{ID: req.ID, Err: err.Error()})
			continue
		}
		switch {
		case req.Op == opSolve && ops == nil:
			s.solve(req, resolveBody(bodies, req), conn.RemoteAddr(), &wg, write)
		case req.Op == opPing:
			write(&Response{ID: req.ID})
		case ops != nil && req.Op == opDiagnose:
			wg.Add(1)
			go func() {
				defer wg.Done()
				tail, err := ops.Answer(ctx, req)
				if err != nil {
					write(&Response{ID: req.ID, Err: err.Error(), Busy: errors.Is(err, ErrBusy)})
					return
				}
				// The answer is already encoded (a memo hit shares it): only
				// the ID in front is this request's.
				logFailed(w.Write(strconv.AppendUint([]byte(frameHead), req.ID, 10), tail))
			}()
		default:
			write(inline(ops, req))
		}
	}
}

// inline answers a daemon's cheap ops directly in the read loop.
func inline(ops Ops, req *Request) *Response {
	resp := &Response{ID: req.ID}
	err := fmt.Errorf("qfixd: unknown op %q", req.Op)
	switch {
	case ops == nil:
	case req.Op == opCreate:
		err = ops.Create(req.Tenant, req.Table, req.Key, req.Attrs, req.Rows)
	case req.Op == opAppend:
		resp.N, err = ops.Append(req.Tenant, req.SQL)
	case req.Op == opComplain:
		resp.N, err = ops.Complain(req.Tenant, req.Complaints)
	case req.Op == opCheckpoint:
		err = ops.Checkpoint(req.Tenant)
	case req.Op == opStats:
		resp.Tenants, resp.Tenant, err = ops.Stats(req.Tenant)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// solve admits one solve into the server-wide pool, blocking the read
// loop until a slot frees, and answers it from a goroutine of its own.
func (s *Server) solve(job *Request, b *body, from net.Addr, wg *sync.WaitGroup, write func(*Response)) {
	// The attempt window anchors on this clock at the frame's arrival,
	// so the slot wait counts against it.
	arrival := time.Now()
	sem := s.solveSem()
	mWorkerQueueDepth.Add(1)
	sem <- struct{}{}
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
			ctx, cancel = context.WithDeadline(ctx, arrival.Add(time.Duration(job.AttemptTTLNS)))
			defer cancel()
		}
		start := time.Now()
		s.capLimits(job)
		res := solveJob(ctx, job, b)
		elapsed := time.Since(start)
		mWorkerJobSeconds.Observe(elapsed.Seconds())
		var st core.Stats
		if res.Stats != nil {
			st = *res.Stats
		}
		s.logf("dist: job %d from %s: complaints=%d resolved=%v err=%q %s (%v)",
			job.ID, from, len(job.Complaints), res.Resolved, res.Err, st.Brief(), elapsed.Round(time.Millisecond))
		write(res)
	}()
}

// clampBudget bounds the solve's total budget by the context deadline
// (the job's attempt TTL, anchored at frame arrival), however long the
// job queued first. false means the attempt is already dead and must be
// refused without solving.
func clampBudget(ctx context.Context, o *core.Options) bool {
	if ctx.Err() != nil {
		return false
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	remain := time.Until(dl)
	if remain <= 0 {
		return false
	}
	if o.TotalTimeLimit <= 0 || o.TotalTimeLimit > remain {
		o.TotalTimeLimit = remain
	}
	return true
}

// solveJob answers one solve (for the server, and for the tests'
// in-process transport): it refuses other versions, bodies that failed
// to decode and dead attempts, and solves the rest on the local engine
// bounded by ctx. b is the job's body, carried or held by its
// connection; a job that named a held body reports it through
// Stats.WorkerCacheHits. The first solve over a body plans it, and
// every solve over it solves on that plan: the replay, the FullImpact
// closure and the rest of planning run once per body, not per job.
func solveJob(ctx context.Context, job *Request, b *body) *Response {
	fail := func(err error) *Response { return &Response{Version: WireVersion, ID: job.ID, Err: err.Error()} }
	if err := job.validate(nil); err != nil {
		return fail(err)
	}
	if b.err != nil {
		return fail(b.err)
	}
	b.plan.Do(func() { b.sub.Plan() }) // its error is every solve's answer
	sub := b.subproblem(job)
	if !clampBudget(ctx, &sub.Options) {
		return fail(cmp.Or(ctx.Err(), context.DeadlineExceeded))
	}
	rep, err := sub.Solve()
	if err == nil && job.D0 == nil {
		rep.Stats.WorkerCacheHits = 1
	}
	res, encErr := EncodeResult(job.ID, rep, err)
	if encErr != nil {
		return fail(encErr)
	}
	return res
}

// resolveBody applies one solve frame to its connection's body table
// and returns the solve's body. It runs for every solve in read order,
// before admission, as the client moves its copy in write order: a
// carried body takes a slot (even one that fails to decode), a named one
// is marked used, and one the connection does not hold is an error.
func resolveBody(bodies *lru.Map[uint64, *body], job *Request) *body {
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

// solveSem lazily builds the server-wide solve-slot semaphore sized
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

// capLimits clamps the solve's budgets to MaxTimeLimit (its solver
// width is clamped where its options become the engine's).
func (s *Server) capLimits(job *Request) {
	if s.MaxTimeLimit <= 0 {
		return
	}
	if job.Options == nil {
		job.Options = new(DiagnoseOptions)
	}
	o := job.Options
	limit := ceilMS(s.MaxTimeLimit)
	if o.TimeLimitMS <= 0 || o.TimeLimitMS > limit {
		o.TimeLimitMS = limit
	}
	if job.TotalTimeLimitMS <= 0 || job.TotalTimeLimitMS > limit {
		job.TotalTimeLimitMS = limit
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
