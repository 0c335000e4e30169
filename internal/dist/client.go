package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frameconn"
	"repro/internal/lru"
)

// Reconnect backoff: after a dial failure or broken connection the
// client waits before re-dialing — exponential from muxBackoffBase,
// capped at muxBackoffMax, jittered by ±25% so workers behind one
// recovered path are not re-dialed in lockstep. The jitter is seeded
// from the peer's address: reproducible per peer, distinct across.
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

// backoffSeed is a client's jitter seed: its peer's address, FNV-1a.
func backoffSeed(addr string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Client is the one client of the wire: a daemon's tenants use it
// (Create, Append, Diagnose, ...) and the coordinator uses it as its
// Transport to one worker. It keeps one connection, safe for concurrent
// use: requests multiplex over it under IDs of the client's, and one
// reader goroutine routes the answers back as they arrive. It mirrors
// its server's body table, so a solve carries its body only when the
// connection does not hold it yet. A broken connection fails every
// request in flight with the reason and arms the reconnect backoff;
// while that is in force a request fails at once without dialing (the
// coordinator moves the job on), and the first one after it re-dials.
type Client struct {
	addr   string
	dialer net.Dialer

	// writeMu serializes frame writes together with the body table they
	// move, so the check, the update and the write are one step in frame
	// order. It is never held with mu: a write stalled on a wedged peer
	// cannot block the read loop, only sibling writers, until its
	// deadline tears the connection down.
	writeMu sync.Mutex
	frame   bytes.Buffer  // guarded by writeMu — the frame being written
	enc     *json.Encoder // guarded by writeMu — into frame, `<`, `>` and `&` raw: the strings are SQL

	mu       sync.Mutex
	conn     *clientConn               // guarded by mu
	pending  map[uint64]chan *Response // guarded by mu
	nextID   uint64                    // guarded by mu
	gen      uint64                    // guarded by mu — connection generation; guards stale teardowns
	dialing  chan struct{}             // guarded by mu — non-nil while a dial is in flight; closed when it settles
	failures int                       // guarded by mu — consecutive connection failures (drives backoff)
	nextDial time.Time                 // guarded by mu — earliest next dial
	down     error                     // guarded by mu — why the last connection or dial failed
	rng      *rand.Rand                // guarded by mu — backoff jitter, seeded from addr
	closed   bool                      // guarded by mu
}

// clientConn is one connection together with the client's copy of its
// server's body table. A new connection starts with both tables empty.
type clientConn struct {
	net.Conn
	bodies *lru.Map[uint64, struct{}] // guarded by Client.writeMu
}

// DialMux returns a client of the server at addr ("host:port"). No
// connection is made until the first request (or Dial).
func DialMux(addr string) *Client {
	c := &Client{
		addr:    addr,
		pending: make(map[uint64]chan *Response),
		rng:     rand.New(rand.NewSource(backoffSeed(addr))),
	}
	c.enc = json.NewEncoder(&c.frame)
	c.enc.SetEscapeHTML(false)
	return c
}

// Dial connects now instead of at the first request.
func (c *Client) Dial() error {
	_, err := c.connection(context.Background())
	return err
}

// Addr implements Transport.
func (c *Client) Addr() string { return c.addr }

// Close implements Transport: it tears down the connection, failing
// any requests in flight.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.teardownLocked(c.gen, net.ErrClosed)
	c.mu.Unlock()
	return nil
}

// Do implements Transport: it sends req under an ID of the client's
// (setting req.ID and req.Version) and waits for the answer the read
// loop hands over. An answer that carries an Err is returned as it is,
// with a nil error.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	id, ch, err := c.submit(ctx, req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's own context ended while the request awaited a
			// dial or queued behind another writer: report that.
			return nil, fmt.Errorf("dist: %s %d on %s: %w", req.Op, req.ID, c.addr, ctxErr)
		}
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.down
			c.mu.Unlock()
			return nil, fmt.Errorf("dist: %s: %s %d in flight: %w", c.addr, req.Op, req.ID, err)
		}
		if req.Op == opSolve && resp.Stats != nil {
			// Every remote answer streams back this way, so
			// StreamedResults equals RemoteJobs; ROADMAP 2(d) deletes it.
			resp.Stats.StreamedResults = 1
		}
		return resp, nil
	case <-ctx.Done():
		c.forget(id)
		return nil, fmt.Errorf("dist: %s %d on %s: %w", req.Op, req.ID, c.addr, ctx.Err())
	}
}

// submit registers the request and writes its frame, dialing first
// when necessary. It returns the frame's ID and the 1-buffered channel
// the reader delivers the answer on (closed if the connection breaks).
// All network I/O happens outside mu.
func (c *Client) submit(ctx context.Context, req *Request) (uint64, chan *Response, error) {
	conn, err := c.connection(ctx)
	if err != nil {
		return 0, nil, err
	}
	c.mu.Lock()
	if c.closed || c.conn != conn {
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("dist: %s: connection closed before send", c.addr)
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Response, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	req.Version, req.ID = WireVersion, id
	c.writeMu.Lock()
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Expired while queued behind another writer: no byte of this
		// frame was written, so the stream is intact.
		c.writeMu.Unlock()
		c.forget(id)
		return 0, nil, ctxErr
	}
	frame, held := req, false
	if req.Op == opSolve { // the server moves its table for solves only
		_, held = conn.bodies.Get(req.Body)
	}
	if req.D0 != nil && held {
		ref := *req
		ref.D0, ref.Log = nil, nil
		frame = &ref
	}
	c.frame.Reset()
	if err := c.enc.Encode(frame); err != nil {
		c.writeMu.Unlock()
		c.forget(id)
		return 0, nil, fmt.Errorf("dist: encode %s for %s: %w", req.Op, c.addr, err)
	}
	if req.D0 != nil && !held {
		conn.bodies.Put(req.Body, struct{}{})
	}
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Now().Add(frameconn.WriteTimeout) // a stalled write must not hold writeMu forever
	}
	conn.SetWriteDeadline(dl)
	_, err = conn.Write(c.frame.Bytes())
	conn.SetWriteDeadline(time.Time{})
	if c.frame.Cap() > 1<<20 {
		c.frame = bytes.Buffer{} // a large body is carried once; do not keep its buffer
	}
	c.writeMu.Unlock()
	if err != nil {
		err = fmt.Errorf("dist: send %s to %s: %w", req.Op, c.addr, err)
		c.mu.Lock()
		delete(c.pending, id)
		if c.conn == conn {
			c.teardownLocked(c.gen, err)
		}
		c.mu.Unlock()
		return 0, nil, err
	}
	return id, ch, nil
}

// connection returns the live connection, dialing it first when down
// (outside mu; concurrent callers wait for that dial, escaping on their
// own context, and share its outcome). During the backoff it fails.
func (c *Client) connection(ctx context.Context) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("dist: %s: %w", c.addr, net.ErrClosed)
		}
		if c.conn != nil {
			conn := c.conn
			c.mu.Unlock()
			return conn, nil
		}
		if c.dialing != nil {
			settled := c.dialing
			c.mu.Unlock()
			select {
			case <-settled:
				continue // re-evaluate: conn live, backoff armed, or closed
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if time.Now().Before(c.nextDial) {
			err := fmt.Errorf("dist: %s: reconnect backing off: %w", c.addr, c.down)
			c.mu.Unlock()
			return nil, err
		}
		settled := make(chan struct{})
		c.dialing = settled
		c.mu.Unlock()

		nc, err := c.dialer.DialContext(ctx, "tcp", c.addr)

		c.mu.Lock()
		c.dialing = nil
		close(settled)
		if err != nil {
			err = fmt.Errorf("dist: dial %s: %w", c.addr, err)
			// A dial aborted by the caller's own deadline says nothing
			// about the peer's health; only a genuine failure backs off.
			if ctx.Err() == nil {
				c.backoffLocked(err)
			}
			c.mu.Unlock()
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return nil, fmt.Errorf("dist: %s: %w", c.addr, net.ErrClosed)
		}
		if c.gen > 0 {
			// gen moves only on successful dials and teardowns, so a
			// nonzero value means this dial replaced a broken link.
			mDistReconnects.Inc()
		}
		conn := &clientConn{Conn: nc, bodies: lru.New[uint64, struct{}](bodySlots)}
		c.conn = conn
		c.gen++
		go c.readLoop(conn, c.gen)
		c.mu.Unlock()
		return conn, nil
	}
}

// readLoop routes answer frames to their requests until the connection
// breaks or sends something that is not a frame (a line over
// frameconn.MaxFrame included), then fails whatever is still pending.
func (c *Client) readLoop(conn net.Conn, gen uint64) {
	r := frameconn.NewReader(conn)
	for {
		resp := new(Response)
		line, err := r.Next()
		if err == nil {
			err = resp.Decode(line) // copies what it keeps
		}
		c.mu.Lock()
		if err != nil {
			c.teardownLocked(gen, fmt.Errorf("connection lost: %w", err))
			c.mu.Unlock()
			return
		}
		if c.gen != gen {
			c.mu.Unlock()
			return // a teardown already replaced this connection
		}
		c.failures = 0 // live traffic proves the link healthy
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// forget drops a pending request whose caller gave up; a late answer
// for it is discarded by the read loop.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// teardownLocked closes the given connection generation, fails its
// pending requests with cause and arms the backoff. A stale generation
// is ignored, so a late read-loop exit cannot clobber a fresh link.
func (c *Client) teardownLocked(gen uint64, cause error) {
	if gen != c.gen || c.conn == nil {
		return
	}
	c.gen++
	c.conn.Close()
	c.conn = nil
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.backoffLocked(cause)
}

// backoffLocked arms the next dial: exponential in consecutive
// failures, capped, jittered (muxBackoff).
func (c *Client) backoffLocked(cause error) {
	c.down = cause
	c.failures++
	c.nextDial = time.Now().Add(muxBackoff(c.failures, c.rng))
}

// call is Do for the daemon ops: an answer's Err comes back as the
// error, ErrBusy-wrapped when Busy.
func (c *Client) call(req *Request) (*Response, error) {
	resp, err := c.Do(context.Background(), req)
	switch {
	case err != nil:
		return nil, err
	case resp.Busy:
		return resp, fmt.Errorf("%w: %s", ErrBusy, resp.Err)
	case resp.Err != "":
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// op is call for the ops whose answer is only an error.
func (c *Client) op(req *Request) error {
	_, err := c.call(req)
	return err
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error { return c.op(&Request{Op: opPing}) }

// Create initializes a tenant with the given checkpoint state.
func (c *Client) Create(tenant, table, key string, attrs []string, rows [][]float64) error {
	return c.op(&Request{Op: opCreate, Tenant: tenant, Table: table, Key: key, Attrs: attrs, Rows: rows})
}

// Append appends SQL statements to the tenant's log.
func (c *Client) Append(tenant string, sql ...string) error {
	return c.op(&Request{Op: opAppend, Tenant: tenant, SQL: sql})
}

// Complain stages complaints for the tenant's next diagnosis.
func (c *Client) Complain(tenant string, complaints []core.Complaint) error {
	return c.op(&Request{Op: opComplain, Tenant: tenant, Complaints: complaints})
}

// Diagnose runs a diagnosis over the tenant's staged plus the given
// inline complaints. A nil opt means the CLI-default options.
func (c *Client) Diagnose(tenant string, complaints []core.Complaint, opt *DiagnoseOptions) (*Response, error) {
	return c.call(&Request{Op: opDiagnose, Tenant: tenant, Complaints: complaints, Options: opt})
}

// Checkpoint commits the tenant's current state as its new D0.
func (c *Client) Checkpoint(tenant string) error {
	return c.op(&Request{Op: opCheckpoint, Tenant: tenant})
}

var _ Transport = (*Client)(nil)
