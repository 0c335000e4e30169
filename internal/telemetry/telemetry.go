// Package telemetry serves a metrics registry over HTTP for the
// long-running binaries: qfixd's -admin listener and qfix-worker's
// -telemetry listener. It lives apart from internal/obs so the engine
// packages, which all publish into obs, do not link net/http,
// crypto/tls or net/http/pprof into the qfix CLI.
package telemetry

import (
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// stallTimeout bounds how long a connection may take to send its
// request headers, and how long a keep-alive connection may sit idle
// between requests, so a client that connects and stalls releases its
// goroutine and socket. Fixed, not a knob; a var only so the package's
// test can shorten it.
var stallTimeout = 10 * time.Second

// Server returns the HTTP server behind qfixd's -admin and
// qfix-worker's -telemetry listeners, ready for Serve:
//
//	/metrics     Prometheus text exposition of r
//	/debug/vars  the same metrics as JSON
//	/debug/pprof pprof profiles (CPU, heap, goroutine, ...)
//
// pprof handlers are mounted on a private mux explicitly rather than
// via the net/http/pprof side-effect import, so nothing leaks onto
// http.DefaultServeMux.
func Server(r *obs.Registry) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Handler: mux, ReadHeaderTimeout: stallTimeout, IdleTimeout: stallTimeout}
}
