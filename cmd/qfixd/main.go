// Command qfixd runs QFix as a resident multi-tenant diagnosis service.
//
// It owns a directory of history stores (one subdirectory per tenant)
// and optionally a shared worker fleet, and serves
// append/complain/diagnose requests over a newline-delimited JSON
// protocol (internal/qfixd):
//
//	qfixd -addr :7460 -dir /var/lib/qfix &
//	# then, from any client connection:
//	{"v":1,"id":1,"op":"create","tenant":"acme","table":"Taxes","attrs":["income","owed","pay"]}
//	{"v":1,"id":2,"op":"append","tenant":"acme","sql":["UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700"]}
//	{"v":1,"id":3,"op":"complain","tenant":"acme","complaints":[{"TupleID":3,"Exists":true,"Values":[86000,21500,64500]}]}
//	{"v":1,"id":4,"op":"diagnose","tenant":"acme"}
//
// Diagnoses run concurrently up to -max-inflight, with excess queued
// per tenant and drained round-robin so no tenant starves another;
// repairs are byte-identical to the same diagnosis run by the qfix CLI.
// -admin serves live telemetry (/metrics, /debug/vars, /debug/pprof/*).
// SIGINT/SIGTERM drain gracefully: in-flight diagnoses finish and
// answer, new work is refused, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/qfixd"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr  = flag.String("addr", ":7460", "TCP address to serve the daemon protocol on")
		admin = flag.String("admin", "",
			"serve admin telemetry on this HTTP address (/metrics Prometheus text, /debug/vars JSON, /debug/pprof/*); empty disables")
		dir       = flag.String("dir", ".", "root data directory; each tenant's history store is a subdirectory")
		inflt     = flag.Int("max-inflight", 0, "concurrent diagnoses across all tenants, each running up to its partition width of MILPs (0 = GOMAXPROCS, <0 = one at a time)")
		tq        = flag.Int("tenant-queue", 0, "per-tenant cap on queued diagnoses; beyond it requests get a busy error (0 = default, <0 = no queueing)")
		workers   = flag.String("workers", "", "comma-separated qfix-worker addresses for a shared diagnosis fleet")
		part      = flag.Int("partition", 0, "default partition width for diagnoses that do not request one")
		maxStores = flag.Int("max-stores", 0, "resident tenant stores before LRU eviction of idle ones (0 = default, <0 = unlimited)")
		storeIdle = flag.Duration("store-idle", 0, "close tenant stores unused this long (0 = default, <0 = never)")
		traces    = flag.String("trace-dir", "", "write one span-tree trace per diagnosis into this directory; empty disables")
		drain     = flag.Duration("drain-timeout", time.Minute, "how long a graceful shutdown waits for in-flight diagnoses")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	cfg := qfixd.Config{
		Dir:           *dir,
		MaxInflight:   *inflt,
		TenantQueue:   *tq,
		Partition:     *part,
		MaxOpenStores: *maxStores,
		StoreIdle:     *storeIdle,
		TraceDir:      *traces,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "qfixd:", err)
			os.Exit(1)
		}
	}

	if *admin != "" {
		// The admin listener binds before the service listener so a
		// misconfigured address fails fast, before clients can connect.
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfixd: admin:", err)
			os.Exit(1)
		}
		log.Printf("qfixd: admin telemetry on http://%s/metrics", al.Addr())
		go func() {
			if err := telemetry.Server(obs.Default()).Serve(al); err != nil {
				log.Printf("qfixd: admin server: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfixd:", err)
		os.Exit(1)
	}

	svc := qfixd.NewService(cfg)
	srv := qfixd.NewServer(svc)
	log.Printf("qfixd: serving tenants from %s on %s (protocol v%d, %d fleet workers)",
		*dir, l.Addr(), qfixd.WireVersion, len(cfg.Workers))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("qfixd: %v: draining (up to %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfixd: shutdown:", err)
			os.Exit(1)
		}
		log.Printf("qfixd: drained, exiting")
	case err := <-errc:
		svc.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "qfixd:", err)
			os.Exit(1)
		}
	}
}
