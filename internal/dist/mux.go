package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/frameconn"
	"repro/internal/lru"
)

// Mux reconnect backoff: after a dial failure or broken connection the
// transport waits before re-dialing the persistent connection —
// exponential from muxBackoffBase, capped at muxBackoffMax, then
// jittered by ±25% (muxBackoffJitter). Without the jitter the schedule
// is fully deterministic, so a coordinator with several mux workers
// behind one recovered network path re-dials them all in lockstep,
// slamming the path at the exact same instants every cycle; the jitter
// de-synchronizes the fleet. It is seeded per-transport from the worker
// address, so a given transport's schedule is reproducible (tests pin
// it) while distinct workers never share one. Jobs that arrive while
// the persistent connection is down are not delayed and not lost: they
// fall back to one dialed connection per job, so a recovering worker
// keeps serving the fleet while the mux link heals.
const (
	muxBackoffBase   = 250 * time.Millisecond
	muxBackoffMax    = 10 * time.Second
	muxBackoffJitter = 0.25
)

// muxBackoff returns the jittered wait before reconnect attempt
// `failures` (1-based): the capped exponential scaled by a factor drawn
// uniformly from [1-muxBackoffJitter, 1+muxBackoffJitter).
func muxBackoff(failures int, rng *rand.Rand) time.Duration {
	d := muxBackoffMax
	if failures >= 1 && failures <= 6 {
		if b := muxBackoffBase << (failures - 1); b < d {
			d = b
		}
	}
	scale := 1 - muxBackoffJitter + 2*muxBackoffJitter*rng.Float64()
	return time.Duration(float64(d) * scale)
}

// backoffSeed derives a transport's deterministic jitter seed from its
// worker address (FNV-1a), so schedules are reproducible per worker and
// distinct across workers.
func backoffSeed(addr string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return int64(h)
}

// errMuxDown marks a job that never reached the persistent connection
// (dial failed, backoff in force, or transport closed): the attempt is
// still fresh and may be retried on the per-job path.
var errMuxDown = errors.New("dist: persistent connection unavailable")

// MuxTransport keeps one long-lived connection to a worker and
// multiplexes concurrent jobs over it: each frame carries its
// job ID, a single reader goroutine demultiplexes result frames to the
// in-flight callers as the worker streams them back — possibly out of
// submission order — and the connection persists across jobs and
// diagnoses, so the per-job dial/teardown of TCPTransport disappears
// from the critical path.
//
// Failure semantics preserve the coordinator's no-lost-instances
// guarantee:
//
//   - a broken connection fails every in-flight job with a transport
//     error (the coordinator retries each on another worker and
//     ultimately solves locally) and arms a reconnect backoff;
//   - while the persistent connection is down, jobs fall back to
//     dial-per-job against the same worker instead of erroring, so a
//     restarted worker serves again immediately and the mux link is
//     re-dialed once the backoff expires.
type MuxTransport struct {
	addr    string
	dialer  net.Dialer
	oneShot *TCPTransport // dial-per-job fallback while the mux link is down

	// writeMu serializes frame writes on the persistent connection,
	// together with the copy of the worker's body table they move: which
	// bodies the connection holds decides whether a frame carries its
	// job's body, so the check, the table update and the write form one
	// step in frame order. It is never held together with mu, so a write
	// stalled on a wedged worker's receive window cannot block the read
	// loop's demultiplexing or other jobs' state transitions. Sibling
	// writers do queue behind the stall until its deadline tears the
	// connection down (failing the in-flight jobs over to the retry
	// path) — a wedged worker costs its connection, not the transport.
	writeMu sync.Mutex

	mu       sync.Mutex
	conn     *muxConn                // guarded by mu
	pending  map[uint64]chan *Result // guarded by mu
	gen      uint64                  // guarded by mu — connection generation; guards stale teardowns
	dialing  chan struct{}           // guarded by mu — non-nil while a dial is in flight; closed when it settles
	failures int                     // guarded by mu — consecutive connection failures (drives backoff)
	nextDial time.Time               // guarded by mu — earliest next persistent-connection dial
	rng      *rand.Rand              // guarded by mu — backoff jitter, seeded from addr
	closed   bool
}

// muxConn is one persistent connection together with the coordinator's
// copy of its worker's body table. A new connection starts with both
// tables empty; a submit still holding a replaced connection moves only
// that connection's table, whose worker is gone.
type muxConn struct {
	net.Conn
	bodies *lru.Map[uint64, struct{}] // guarded by MuxTransport.writeMu
}

// DialMux returns a persistent multiplexed transport for the worker at
// addr ("host:port"). No connection is made until the first job.
func DialMux(addr string) *MuxTransport {
	return &MuxTransport{
		addr:    addr,
		oneShot: Dial(addr),
		pending: make(map[uint64]chan *Result),
		rng:     rand.New(rand.NewSource(backoffSeed(addr))),
	}
}

// Addr implements Transport.
func (t *MuxTransport) Addr() string { return t.addr }

// Close implements Transport: it tears down the persistent connection,
// failing any in-flight jobs.
func (t *MuxTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.teardownLocked(t.gen)
	t.mu.Unlock()
	return t.oneShot.Close()
}

// Do implements Transport.
func (t *MuxTransport) Do(ctx context.Context, job *Job) (*Result, error) {
	res, err := t.doMux(ctx, job)
	if err != nil {
		if !errors.Is(err, errMuxDown) {
			return nil, err
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			// errMuxDown caused by the caller's own expired context
			// (e.g. it died queued behind a writer or awaiting the
			// dial): a fallback dial would fail instantly and blame the
			// dial — surface the real cause instead.
			return nil, fmt.Errorf("dist: job %d on %s: %w", job.ID, t.addr, ctxErr)
		}
		// The persistent connection is down (dial failed or backing
		// off). The job hasn't been sent anywhere yet, so spend the
		// attempt on a per-job dial rather than failing it.
		return t.oneShot.Do(ctx, job)
	}
	// The result streamed back over the persistent connection; mark it
	// so the engine's stats distinguish mux results from per-job dials.
	res.Stats.StreamedResults = 1
	return res, nil
}

// doMux runs one job over the persistent connection.
func (t *MuxTransport) doMux(ctx context.Context, job *Job) (*Result, error) {
	ch, err := t.submit(ctx, job)
	if err != nil {
		return nil, err
	}
	select {
	case res, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("dist: %s: connection broke with job %d in flight",
				t.addr, job.ID)
		}
		return res, nil
	case <-ctx.Done():
		t.forget(job.ID)
		return nil, fmt.Errorf("dist: job %d on %s: %w", job.ID, t.addr, ctx.Err())
	}
}

// submit registers the job and writes its frame on the persistent
// connection, dialing first when necessary. It returns the 1-buffered
// channel the reader will deliver the result on (closed if the
// connection breaks). All network I/O happens outside the state mutex.
func (t *MuxTransport) submit(ctx context.Context, job *Job) (chan *Result, error) {
	// Resolve the connection first — a cheap mutex check when it is
	// live, and an immediate errMuxDown during an outage/backoff window
	// so the job falls back to dial-per-job without having marshaled a
	// frame it would only throw away.
	conn, err := t.connection(ctx)
	if err != nil {
		return nil, err
	}
	// Serialize the body-less frame before taking any lock; only a frame
	// that carries the body is marshaled under writeMu, once per body
	// per connection.
	ref := *job
	ref.D0, ref.Log = nil, nil
	frame, err := marshalFrame(&ref)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal job %d for %s: %w", job.ID, t.addr, err)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("dist: %s: %w", t.addr, net.ErrClosed)
	}
	if t.conn != conn {
		// The connection broke between lookup and registration; the
		// frame was never sent, so the attempt is still fresh.
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s connection replaced before send", errMuxDown, t.addr)
	}
	ch := make(chan *Result, 1)
	t.pending[job.ID] = ch
	t.mu.Unlock()

	// Frame writes are serialized by writeMu alone; they land in the
	// socket buffer or fail by the caller's deadline (which also covers
	// a worker too wedged to drain its receive window).
	t.writeMu.Lock()
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The deadline expired while queued behind another writer: no
		// bytes of this frame were written, so the stream is intact —
		// bow out without the collateral teardown a mid-write failure
		// demands, leaving sibling in-flight jobs untouched.
		t.writeMu.Unlock()
		t.forget(job.ID)
		return nil, fmt.Errorf("%w: job %d on %s: %v", errMuxDown, job.ID, t.addr, ctxErr)
	}
	if _, held := conn.bodies.Get(job.Body); !held && job.D0 != nil {
		if frame, err = marshalFrame(job); err != nil {
			t.writeMu.Unlock()
			t.forget(job.ID)
			return nil, fmt.Errorf("dist: marshal job %d for %s: %w", job.ID, t.addr, err)
		}
		conn.bodies.Put(job.Body, struct{}{})
	}
	dl, ok := ctx.Deadline()
	if !ok {
		// Only direct users of the transport come here without a
		// deadline; a stalled write must not hold writeMu forever.
		dl = time.Now().Add(frameconn.WriteTimeout)
	}
	conn.SetWriteDeadline(dl)
	_, err = conn.Write(frame)
	if err == nil {
		conn.SetWriteDeadline(time.Time{})
	}
	t.writeMu.Unlock()
	if err != nil {
		t.mu.Lock()
		delete(t.pending, job.ID)
		if t.conn == conn {
			t.teardownLocked(t.gen)
		}
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: send job %d to %s: %v", errMuxDown, job.ID, t.addr, err)
	}
	return ch, nil
}

// marshalFrame serializes a job as one newline-terminated frame.
func marshalFrame(job *Job) ([]byte, error) {
	frame, err := json.Marshal(job)
	return append(frame, '\n'), err
}

// connection returns the live persistent connection, dialing it first
// when down. The dial itself runs outside the state mutex, so the read
// loop and other state transitions never block behind it; concurrent
// callers wait for the in-flight dial (escaping on their own context)
// and then share its outcome, so the first wave of jobs all ride the
// one new connection. When the reconnect backoff is in force the caller
// gets errMuxDown and its job proceeds over the per-job path instead.
func (t *MuxTransport) connection(ctx context.Context) (*muxConn, error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, fmt.Errorf("dist: %s: %w", t.addr, net.ErrClosed)
		}
		if t.conn != nil {
			conn := t.conn
			t.mu.Unlock()
			return conn, nil
		}
		if t.dialing != nil {
			settled := t.dialing
			t.mu.Unlock()
			select {
			case <-settled:
				continue // re-evaluate: conn live, backoff armed, or closed
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %s awaiting dial: %v", errMuxDown, t.addr, ctx.Err())
			}
		}
		if time.Now().Before(t.nextDial) {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %s reconnect backing off", errMuxDown, t.addr)
		}
		settled := make(chan struct{})
		t.dialing = settled
		t.mu.Unlock()

		nc, err := t.dialer.DialContext(ctx, "tcp", t.addr)

		t.mu.Lock()
		t.dialing = nil
		close(settled)
		if err != nil {
			// A dial aborted by the submitting job's own deadline says
			// nothing about the worker's health; only a genuine dial
			// failure arms the reconnect backoff.
			if ctx.Err() == nil {
				t.backoffLocked()
			}
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: dial %s: %v", errMuxDown, t.addr, err)
		}
		if t.closed {
			t.mu.Unlock()
			nc.Close()
			return nil, fmt.Errorf("dist: %s: %w", t.addr, net.ErrClosed)
		}
		if t.gen > 0 {
			// gen moves only on successful dials and teardowns, so a
			// nonzero value here means this dial replaced a broken link.
			mDistReconnects.Inc()
		}
		conn := &muxConn{Conn: nc, bodies: lru.New[uint64, struct{}](bodySlots)}
		t.conn = conn
		t.gen++
		go t.readLoop(conn, t.gen)
		t.mu.Unlock()
		return conn, nil
	}
}

// readLoop demultiplexes result frames to their in-flight jobs until
// the connection breaks, then fails whatever is still pending.
func (t *MuxTransport) readLoop(conn net.Conn, gen uint64) {
	r := frameconn.NewReader(conn)
	// Lifetime is the connection's, not a caller's: the read fails when
	// the conn closes (teardown or peer loss) or streams a line past
	// frameconn.MaxFrame, and the pending-map send is 1-buffered, so the
	// loop can neither outlive the link nor block.
	for {
		res := new(Result)
		if err := r.Decode(res); err != nil {
			t.mu.Lock()
			t.teardownLocked(gen)
			t.mu.Unlock()
			return
		}
		t.mu.Lock()
		if t.gen != gen {
			// A teardown already replaced this connection; stop reading.
			t.mu.Unlock()
			return
		}
		t.failures = 0 // live traffic proves the link healthy
		ch, ok := t.pending[res.ID]
		delete(t.pending, res.ID)
		t.mu.Unlock()
		if ok {
			ch <- res // 1-buffered: never blocks, even if the caller timed out
		}
	}
}

// forget drops a pending job whose caller gave up (context expiry); a
// late result frame for it is discarded by the read loop.
func (t *MuxTransport) forget(id uint64) {
	t.mu.Lock()
	delete(t.pending, id)
	t.mu.Unlock()
}

// teardownLocked closes the given connection generation, fails its
// pending jobs, and arms the reconnect backoff. Stale generations
// (already torn down, or replaced by a newer dial) are ignored, so a
// racing read-loop exit cannot clobber a fresh connection.
func (t *MuxTransport) teardownLocked(gen uint64) {
	if gen != t.gen || t.conn == nil {
		return
	}
	t.gen++
	t.conn.Close()
	t.conn = nil
	for id, ch := range t.pending {
		close(ch)
		delete(t.pending, id)
	}
	t.backoffLocked()
}

// backoffLocked arms the next persistent-connection dial: exponential
// in consecutive failures, capped, jittered (muxBackoff).
func (t *MuxTransport) backoffLocked() {
	t.failures++
	t.nextDial = time.Now().Add(muxBackoff(t.failures, t.rng))
}

var _ Transport = (*MuxTransport)(nil)
