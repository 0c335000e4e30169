package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// Server is the worker side of the protocol: it accepts connections,
// reads jobs (newline-delimited JSON), solves them on the local engine,
// and writes results. A connection may carry any number of jobs; up to
// MaxInflight jobs across the whole server solve concurrently and each
// result is written the moment its solve lands — possibly out of
// submission order: a mux coordinator matches results to jobs by ID,
// and a dial-per-job coordinator only ever has one job in flight per
// connection.
type Server struct {
	// MaxTimeLimit, when positive, caps the per-solve and total time
	// limits of incoming jobs — a fleet operator's guard against a
	// coordinator requesting unbounded solves.
	MaxTimeLimit time.Duration
	// MaxInflight bounds how many jobs solve concurrently across the
	// whole server — one shared pool, however many connections the
	// jobs arrive on — so the operator's bound holds for mux
	// coordinators, dial-per-job coordinators, and mixtures alike.
	// Admission stops reading a connection's further frames until a
	// slot frees. Zero picks runtime.GOMAXPROCS; negative forces one
	// solve at a time server-wide.
	MaxInflight int
	// CacheSize bounds the decode cache: repeat jobs whose D0/log
	// digests match a cached entry skip the wire decode and the
	// planning closure (workercache.go). Zero picks
	// DefaultWorkerCacheEntries; negative disables caching.
	CacheSize int
	// Logf, when set, receives one line per job and per protocol error.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener          //qfix:guarded-by mu
	conns  map[net.Conn]struct{} //qfix:guarded-by mu
	cache  *workerCache          //qfix:guarded-by mu
	sem    chan struct{}         //qfix:guarded-by mu — server-wide solve slots (MaxInflight)
	closed bool                  //qfix:guarded-by mu
}

// Serve accepts and handles connections on l until Close or a fatal
// listener error. It blocks; run it in a goroutine to serve in the
// background.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dist: server closed")
	}
	s.ln = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	// Accept loops end by listener teardown: Close() closes l, Accept
	// returns, and the closed flag picks the nil return. (The teardown
	// race here was PR 4's bugfix; the invariant is pinned by
	// TestServerClose.)
	//qfix:ctx-ok exits via Close(): closed listener fails Accept
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Registration happens in the same critical section that checks
		// for shutdown: a connection accepted just as Close runs would
		// otherwise land in s.conns after Close's teardown iteration and
		// never be closed.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		// handle's decode loop exits when the peer hangs up or Close
		// tears the registered conn down; its deferred cleanup then
		// deregisters the conn.
		//qfix:leak-ok handle exits on conn error; Close closes every registered conn
		go s.handle(conn)
	}
}

// Close stops accepting and tears down in-flight connections. Jobs being
// solved are abandoned; their coordinators observe a broken connection
// and fall back.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

// handle serves one connection: a read loop admits jobs into the
// server-wide solver pool, and results stream back over a per-
// connection write lock as they land.
func (s *Server) handle(conn net.Conn) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait() // let in-flight solves write (or fail) before teardown
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	sem := s.solveSem()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		job := new(Job)
		if err := dec.Decode(job); err != nil {
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
			res := solveJob(ctx, job, s.workerCache())
			elapsed := time.Since(start)
			mWorkerJobSeconds.Observe(elapsed.Seconds())
			s.logf("dist: job %d from %s: complaints=%d resolved=%v err=%q %s (%v)",
				job.ID, conn.RemoteAddr(), len(job.Complaints), res.Resolved,
				res.Err, res.Stats.Brief(), elapsed.Round(time.Millisecond))
			writeMu.Lock()
			// Bound the write: a peer that stalls without closing the
			// connection must cost its result, not wedge this solve
			// slot forever — the slots are server-wide, so an unbounded
			// write here would eventually starve every coordinator.
			conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
			err := enc.Encode(res)
			if err == nil {
				conn.SetWriteDeadline(time.Time{})
			}
			writeMu.Unlock()
			if err != nil {
				// Fail fast: a dropped result frame would otherwise leave
				// the coordinator waiting out its full attempt timeout.
				// Closing the connection breaks its read loop too, so the
				// peer sees the failure promptly and retries elsewhere.
				s.logf("dist: %s: writing result %d: %v", conn.RemoteAddr(), job.ID, err)
				conn.Close()
			}
		}()
	}
}

// serverWriteTimeout bounds one result-frame write. A frame normally
// lands in the socket buffer instantly; a write this slow means the
// coordinator stopped draining without closing the connection.
const serverWriteTimeout = time.Minute

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

// workerCache lazily builds the server's decode cache per CacheSize.
func (s *Server) workerCache() *workerCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.CacheSize < 0 {
		return nil
	}
	if s.cache == nil {
		s.cache = newWorkerCache(s.CacheSize)
	}
	return s.cache
}

// capLimits clamps the job's solver budgets to the server's policy.
func (s *Server) capLimits(job *Job) {
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

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}
