package qfixd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"repro/internal/frameconn"
)

// Server exposes a Service over TCP: newline-delimited JSON requests in,
// responses out (see wire.go), framed by internal/frameconn as the dist
// worker protocol is. A connection carries any number of requests;
// diagnoses run concurrently under the service's admission control and
// answer out of order, cheap ops answer inline. A diagnose response is
// written from the service's pre-encoded answer (frame.go); every other
// frame is encoding/json's. A request line past frameconn.MaxFrame drops
// that connection only.
type Server struct {
	svc   *Service
	conns frameconn.Registry
}

// NewServer serves svc. The service's lifecycle stays the caller's: a
// server shutdown does not close the service (several listeners may
// share one).
func NewServer(svc *Service) *Server { return &Server{svc: svc} }

// Serve accepts and handles connections on l until Close/Shutdown or a
// fatal listener error. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error { return s.conns.Serve(l, s.handle) }

// Close stops accepting and tears down connections immediately;
// diagnoses already running are abandoned mid-solve (their responses
// have nowhere to go). Use Shutdown for the graceful path.
func (s *Server) Close() error { return s.conns.Close() }

// Shutdown is the graceful drain: stop accepting, mark the service
// draining (new requests answer ErrDraining), let in-flight diagnoses
// finish and write their responses, then tear the connections down.
// ctx bounds the wait; on expiry the remaining connections are cut
// Close-style.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.conns.StopAccepting()
	s.svc.Drain()

	done := make(chan struct{})
	go func() { s.svc.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	s.conns.Close()
	return err
}

// handle serves one connection: a read loop answers cheap ops inline
// and spawns a goroutine per diagnose, each response one frame of the
// connection's writer. The connection's context ends with the
// connection, so queued admissions of a dropped client leave the queue
// instead of holding their tenant's place.
func (s *Server) handle(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait() // in-flight diagnoses write (or fail) before teardown
	}()
	r := frameconn.NewReader(conn)
	w := frameconn.NewWriter(conn, false) // the strings are SQL: `<=` travels as two bytes, not seven
	// A failed write has closed the connection, which also ends this read
	// loop: a dropped response would leave the client waiting forever on
	// its ID.
	logFailed := func(err error) {
		if err != nil {
			s.svc.logf("qfixd: %s: writing response: %v", conn.RemoteAddr(), err)
		}
	}
	write := func(resp *Response) {
		resp.Version = WireVersion
		logFailed(w.Encode(resp))
	}
	for {
		req := new(Request)
		if err := r.Decode(req); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.svc.logf("qfixd: %s: bad frame: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := req.validate(); err != nil {
			write(&Response{ID: req.ID, Err: err.Error()})
			continue
		}
		if req.Op == OpDiagnose {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tail, err := s.svc.answer(ctx, req)
				if err != nil {
					write(&Response{ID: req.ID, Err: err.Error(), Busy: errors.Is(err, ErrBusy)})
					return
				}
				// The answer is already encoded (and, on a memo hit, shared
				// with other requests): only the ID in front of it is this
				// request's, and the two go out in one gathered write.
				logFailed(w.Write(strconv.AppendUint([]byte(frameHead), req.ID, 10), tail))
			}()
			continue
		}
		write(s.inline(req))
	}
}

// inline answers the cheap ops directly in the read loop.
func (s *Server) inline(req *Request) *Response {
	resp := &Response{ID: req.ID}
	var err error
	switch req.Op {
	case OpPing:
	case OpCreate:
		err = s.svc.Create(req.Tenant, req.Table, req.Key, req.Attrs, req.Rows)
	case OpAppend:
		resp.N, err = s.svc.Append(req.Tenant, req.SQL)
	case OpComplain:
		resp.N, err = s.svc.Complain(req.Tenant, req.Complaints)
	case OpCheckpoint:
		err = s.svc.Checkpoint(req.Tenant)
	case OpStats:
		resp.Tenants, resp.Tenant, err = s.svc.Stats(req.Tenant)
	default:
		err = fmt.Errorf("qfixd: unknown op %q", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}
