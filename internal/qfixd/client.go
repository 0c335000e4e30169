package qfixd

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/frameconn"
)

// Client is the Go side of the daemon protocol: one connection, safe
// for concurrent use. Requests multiplex over the connection and a
// reader goroutine routes the (possibly out-of-order) responses back by
// ID — several goroutines can hold diagnoses in flight at once, which
// is exactly how the fairness tests and the bench harness drive a
// daemon.
type Client struct {
	conn net.Conn
	w    *frameconn.Writer

	mu      sync.Mutex
	nextID  uint64                    // guarded by mu
	pending map[uint64]chan *Response // guarded by mu
	err     error                     // guarded by mu — sticky: set once the connection fails
}

// DialDaemon connects to a qfixd server.
func DialDaemon(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("qfixd: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, w: frameconn.NewWriter(conn, false), // the strings are SQL
		pending: make(map[uint64]chan *Response)}
	go c.read()
	return c, nil
}

// Close tears down the connection; requests in flight fail.
func (c *Client) Close() error { return c.conn.Close() }

// read routes response frames to their waiting requests until the
// connection ends or sends something that is not a frame (a line over
// frameconn.MaxFrame included), then fails whatever is still pending.
func (c *Client) read() {
	r := frameconn.NewReader(c.conn)
	// exits via Close: the closed connection fails the read, failing all pending requests
	for {
		resp := new(Response)
		line, err := r.Next()
		if err == nil {
			err = decodeResponse(line, resp) // copies what it keeps
		}
		if err != nil {
			c.fail(fmt.Errorf("qfixd: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail marks the client broken and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *Response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Do sends one request (assigning its ID) and waits for its response.
func (c *Client) Do(req *Request) (*Response, error) {
	req.Version = WireVersion
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()
	if err := c.w.Encode(req); err != nil {
		// The writer closed the connection; the request fails with the
		// rest.
		c.fail(fmt.Errorf("qfixd: send: %w", err))
	}
	// The receive always resolves: read() routes the response or fail()
	// closes the channel.
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if resp.Err != "" {
		if resp.Busy {
			return resp, fmt.Errorf("%w: %s", ErrBusy, resp.Err)
		}
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	_, err := c.Do(&Request{Op: OpPing})
	return err
}

// Create initializes a tenant with the given checkpoint state.
func (c *Client) Create(tenant, table, key string, attrs []string, rows [][]float64) error {
	_, err := c.Do(&Request{Op: OpCreate, Tenant: tenant,
		Table: table, Key: key, Attrs: attrs, Rows: rows})
	return err
}

// Append appends SQL statements to the tenant's log.
func (c *Client) Append(tenant string, sql ...string) error {
	_, err := c.Do(&Request{Op: OpAppend, Tenant: tenant, SQL: sql})
	return err
}

// Complain stages complaints for the tenant's next diagnosis.
func (c *Client) Complain(tenant string, complaints []core.Complaint) error {
	_, err := c.Do(&Request{Op: OpComplain, Tenant: tenant, Complaints: complaints})
	return err
}

// Diagnose runs a diagnosis over the tenant's staged plus the given
// inline complaints. A nil opt means the CLI-default options.
func (c *Client) Diagnose(tenant string, complaints []core.Complaint,
	opt *DiagnoseOptions) (*Response, error) {
	return c.Do(&Request{Op: OpDiagnose, Tenant: tenant,
		Complaints: complaints, Options: opt})
}

// Checkpoint commits the tenant's current state as its new D0.
func (c *Client) Checkpoint(tenant string) error {
	_, err := c.Do(&Request{Op: OpCheckpoint, Tenant: tenant})
	return err
}
