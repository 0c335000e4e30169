package qfixd

import (
	"context"
	"net"

	"repro/internal/dist"
)

// DiagnoseOptions is the wire subset of core.Options a client may set.
type DiagnoseOptions = dist.DiagnoseOptions

// The names of internal/dist's wire, the daemon's protocol; kept for
// benchmark/; ROADMAP 2(d) deletes.
type (
	Request  = dist.Request
	Response = dist.Response
	Client   = dist.Client
)

// Kept for benchmark/; ROADMAP 2(d) deletes.
const (
	WireVersion = dist.WireVersion
	OpDiagnose  = "diagnose"
)

// ErrBusy refuses a diagnosis whose tenant already has its full queue
// waiting: retryable backpressure (Response.Busy on the wire).
var ErrBusy = dist.ErrBusy

// DialDaemon connects to a qfixd server; kept for benchmark/; ROADMAP
// 2(d) deletes.
func DialDaemon(addr string) (*Client, error) {
	c := dist.DialMux(addr)
	if err := c.Dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// Server exposes a Service over TCP on dist's wire (dist.Server, which
// refuses a daemon's solves).
type Server struct {
	svc  *Service
	wire dist.Server
}

// NewServer serves svc, whose lifecycle stays the caller's.
func NewServer(svc *Service) *Server { return &Server{svc: svc} }

// Serve accepts and handles connections on l until Close/Shutdown or a
// fatal listener error. It blocks.
func (s *Server) Serve(l net.Listener) error { return s.wire.ServeOps(l, s.svc) }

// Close stops accepting and tears down connections immediately,
// abandoning diagnoses mid-solve. Shutdown is the graceful path.
func (s *Server) Close() error { return s.wire.Close() }

// Shutdown stops accepting, drains the service (new requests answer
// ErrDraining), lets in-flight diagnoses finish and answer, then tears
// the connections down; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.wire.StopAccepting()
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
	s.wire.Close()
	return err
}
