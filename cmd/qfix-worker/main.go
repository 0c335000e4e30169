// Command qfix-worker serves partition-diagnosis jobs to a qfix
// coordinator. Run one per core across a fleet, then point the
// coordinator at them — qfixd, or a dist.Connect caller:
//
//	qfix-worker -addr :7433 &
//	qfix-worker -addr :7434 &
//	qfixd -partition 4 -workers localhost:7433,localhost:7434
//
// Each job is a self-contained partition subproblem (initial state, query
// log, complaint subset, solver options) framed as newline-delimited JSON
// over TCP; the worker solves it with the in-process engine and streams
// the repair back. A coordinator (qfixd -workers) keeps one persistent
// connection and multiplexes jobs over it: up to -max-inflight jobs (a
// server-wide bound, whatever mix of connections they arrive on) solve
// concurrently and each result is written the moment its solve lands,
// possibly out of submission order. Jobs from coordinators speaking any
// other protocol version are rejected with an error result. -max-timelimit
// caps the solver budget a coordinator may request. Every partition job
// of a diagnosis shares one body, its D0 and log: a connection carries
// each body once, the worker decodes it once into the connection's
// table of the last eight bodies, and later jobs name it by ID. Jobs
// over one decoded body also share the worker's impact closure, so they
// skip re-planning too.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr  = flag.String("addr", ":7433", "TCP address to listen on")
		maxTL = flag.Duration("max-timelimit", 0, "cap on per-job solver time limits (0 = trust the coordinator)")
		inflt = flag.Int("max-inflight", 0,
			"concurrent solves across the whole worker, however many connections (0 = GOMAXPROCS, <0 = one at a time)")
		quiet         = flag.Bool("quiet", false, "suppress per-job logging")
		telemetryAddr = flag.String("telemetry", "",
			"serve live telemetry on this HTTP address (/metrics Prometheus text, /debug/vars JSON, /debug/pprof/*); empty disables")
	)
	flag.Parse()

	srv := &dist.Server{MaxTimeLimit: *maxTL, MaxInflight: *inflt}
	if !*quiet {
		srv.Logf = log.Printf
	}

	if *telemetryAddr != "" {
		// The telemetry listener binds before the job listener so a
		// misconfigured address fails fast instead of after jobs started.
		tl, err := net.Listen("tcp", *telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfix-worker: telemetry:", err)
			os.Exit(1)
		}
		log.Printf("qfix-worker: telemetry on http://%s/metrics", tl.Addr())
		go func() {
			if err := telemetry.Server(obs.Default()).Serve(tl); err != nil {
				log.Printf("qfix-worker: telemetry server: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfix-worker:", err)
		os.Exit(1)
	}
	log.Printf("qfix-worker: serving diagnosis jobs on %s (protocol v%d)", l.Addr(), dist.WireVersion)
	if *maxTL > 0 {
		log.Printf("qfix-worker: per-job solver budget capped at %v", maxTL.Round(time.Second))
	}
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "qfix-worker:", err)
		os.Exit(1)
	}
}
