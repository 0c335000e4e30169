// Command qfix-worker serves partition solves to a qfix coordinator
// (qfixd -workers, or a dist.Connect caller). Run one per core across a
// fleet:
//
//	qfix-worker -addr :7433 &
//	qfix-worker -addr :7434 &
//	qfixd -partition 4 -workers localhost:7433,localhost:7434
//
// It speaks the daemon's wire (internal/dist) and answers its solve op:
// a partition subproblem over a body (D0 and log) that its connection
// carries once and later solves name by ID. Up to -max-inflight solves
// run at once across the worker, each answer written as it lands;
// -max-timelimit caps the solver budget a coordinator may request.
// Frames of another protocol version are answered with an error.
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
		// Bind telemetry first, so a bad address fails before any job.
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
	log.Printf("qfix-worker: serving solves on %s (protocol v%d)", l.Addr(), dist.WireVersion)
	if *maxTL > 0 {
		log.Printf("qfix-worker: per-job solver budget capped at %v", maxTL.Round(time.Second))
	}
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "qfix-worker:", err)
		os.Exit(1)
	}
}
