package qfixd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// Server exposes a Service over TCP: newline-delimited JSON requests in,
// responses out (see wire.go). A connection carries any number of
// requests; diagnoses run concurrently under the service's admission
// control and answer out of order, cheap ops answer inline. A diagnose
// response is written from the service's pre-encoded answer (frame.go);
// every other frame is encoding/json's. Teardown
// follows the dist server's close protocol; Shutdown adds the graceful
// variant the resident daemon needs.
type Server struct {
	svc *Service

	mu     sync.Mutex
	ln     net.Listener          //qfix:guarded-by mu
	conns  map[net.Conn]struct{} //qfix:guarded-by mu
	closed bool                  //qfix:guarded-by mu
}

// NewServer serves svc. The service's lifecycle stays the caller's: a
// server shutdown does not close the service (several listeners may
// share one).
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, conns: make(map[net.Conn]struct{})}
}

// Serve accepts and handles connections on l until Close/Shutdown or a
// fatal listener error. It blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("qfixd: server closed")
	}
	s.ln = l
	s.mu.Unlock()

	//qfix:ctx-ok exits via Close/Shutdown: closed listener fails Accept
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
		// Register in the same critical section that checks for
		// shutdown, so a connection accepted during Close cannot
		// outlive the teardown iteration.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves until Close/Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("qfixd: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Close stops accepting and tears down connections immediately;
// diagnoses already running are abandoned mid-solve (their responses
// have nowhere to go). Use Shutdown for the graceful path.
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

// Shutdown is the graceful drain: stop accepting, mark the service
// draining (new requests answer ErrDraining), let in-flight diagnoses
// finish and write their responses, then tear the connections down.
// ctx bounds the wait; on expiry the remaining connections are cut
// Close-style.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
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
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	return err
}

// handle serves one connection: a read loop answers cheap ops inline
// and spawns a goroutine per diagnose, with responses serialized over a
// per-connection write lock. The connection's context ends with the
// connection, so queued admissions of a dropped client leave the queue
// instead of holding their tenant's place.
func (s *Server) handle(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait() // in-flight diagnoses write (or fail) before teardown
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	enc.SetEscapeHTML(false) // the strings are SQL: `<=` travels as two bytes, not seven
	// frame runs one frame's write under the connection's write lock and
	// deadline.
	frame := func(write func() error) {
		writeMu.Lock()
		conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //qfix:det-ok transport write deadline; never reaches repair logic
		err := write()
		if err == nil {
			conn.SetWriteDeadline(time.Time{})
		}
		writeMu.Unlock()
		if err != nil {
			// A dropped response frame would leave the client waiting
			// forever on that ID; failing the whole connection is the
			// honest signal (and breaks this read loop too).
			s.svc.logf("qfixd: %s: writing response: %v", conn.RemoteAddr(), err)
			conn.Close()
		}
	}
	write := func(resp *Response) {
		resp.Version = WireVersion
		frame(func() error { return enc.Encode(resp) })
	}
	for {
		req := new(Request)
		if err := dec.Decode(req); err != nil {
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
				head := strconv.AppendUint([]byte(frameHead), req.ID, 10)
				frame(func() error {
					_, err := (&net.Buffers{head, tail}).WriteTo(conn)
					return err
				})
			}()
			continue
		}
		write(s.inline(req))
	}
}

// writeTimeout bounds one response frame; a write this slow means the
// client stopped draining without closing the connection.
const writeTimeout = time.Minute

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
