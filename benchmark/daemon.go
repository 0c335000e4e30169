package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/qfixd"
	"repro/internal/query"
	"repro/internal/relation"
)

// daemonCallers is the number of client connections; each owns a
// disjoint half of the tenants, so every tenant sees the same operation
// sequence in every run whatever the interleaving of the two.
const daemonCallers = 2

// repeatsPerAppend is the traffic mix of one tenant cycle: this many
// repeat diagnoses of the staged complaints (warm caches), then one
// append followed by a diagnosis of the grown log.
const repeatsPerAppend = 4

// daemonDriver is daemon_mixed: a resident qfixd service with default
// Config on loopback TCP, its stores on disk.
type daemonDriver struct {
	specs []instSpec
	dir   string
	seed  int64

	tenants []*tenant
	svc     *qfixd.Service
	srv     *qfixd.Server
	served  sync.WaitGroup
	clients []*qfixd.Client
}

// tenant is one history in the daemon and what the harness expects of it.
type tenant struct {
	in    *instance
	name  string
	owner int
	// want is the digest of the reference repair of the log as it now
	// stands: the manifest's for the base log, extended by every
	// statement appended since. Appends touch neither the corrupted
	// query nor the complaint tuples, so the reference repair of the
	// grown log is the old one plus the new statements unchanged;
	// finish re-derives that from scratch to be sure.
	want     digest
	appended []string
	rng      *rand.Rand
	keys     []float64 // key values of tuples no complaint names
}

func (d *daemonDriver) callers() int { return daemonCallers }

func (d *daemonDriver) instances() []*instance {
	insts := make([]*instance, len(d.tenants))
	for i, t := range d.tenants {
		insts[i] = t.in
	}
	return insts
}

func (d *daemonDriver) dataDir() string {
	return filepath.Join(d.dir, "daemon")
}

// start brings up a service and server over the data directory.
func (d *daemonDriver) start() (addr string, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.svc = qfixd.NewService(qfixd.Config{Dir: d.dataDir()})
	d.srv = qfixd.NewServer(d.svc)
	srv := d.srv
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		srv.Serve(l) // returns nil once stop closes the server
	}()
	return l.Addr().String(), nil
}

// stop closes clients, server and service and waits for the accept loop.
func (d *daemonDriver) stop() error {
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = nil
	var err error
	if d.srv != nil {
		d.srv.Close()
		d.served.Wait()
		err = d.svc.Close()
		d.srv, d.svc = nil, nil
	}
	return err
}

func (d *daemonDriver) teardown() {
	d.stop() // nothing to report to: the stores are scratch
	os.RemoveAll(d.dataDir())
}

func (d *daemonDriver) setup(ctx context.Context, rec *recorder) error {
	insts, err := buildAll(d.specs)
	if err != nil {
		return err
	}
	d.tenants = make([]*tenant, len(insts))
	for i, in := range insts {
		t := &tenant{in: in, name: fmt.Sprintf("tenant-%02d", i), owner: i % daemonCallers, want: in.want,
			rng: rand.New(rand.NewSource(d.seed + int64(i)))}
		named := map[int64]bool{}
		for _, c := range in.in.Complaints {
			named[c.TupleID] = true
		}
		in.in.W.D0.Rows(func(tp relation.Tuple) {
			if !named[tp.ID] {
				t.keys = append(t.keys, tp.Values[in.schema.Key()])
			}
		})
		d.tenants[i] = t
	}

	// Load the histories through the protocol, then restart the service
	// so the cold pass opens every store from disk.
	addr, err := d.start()
	if err != nil {
		return err
	}
	loader, err := qfixd.DialDaemon(addr)
	if err != nil {
		return err
	}
	d.clients = []*qfixd.Client{loader}
	for _, t := range d.tenants {
		sch := t.in.schema
		var rows [][]float64
		t.in.in.W.D0.Rows(func(tp relation.Tuple) { rows = append(rows, tp.Values) })
		if err := loader.Create(t.name, sch.Name(), sch.Attr(sch.Key()), sch.Attrs(), rows); err != nil {
			return err
		}
		const frame = 250 // statements per append request
		for lo := 0; lo < len(t.in.sql); lo += frame {
			hi := min(lo+frame, len(t.in.sql))
			if err := loader.Append(t.name, t.in.sql[lo:hi]...); err != nil {
				return err
			}
		}
	}
	if err := d.stop(); err != nil {
		return err
	}
	if addr, err = d.start(); err != nil {
		return err
	}
	for c := 0; c < daemonCallers; c++ {
		cl, err := qfixd.DialDaemon(addr)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, cl)
	}
	for _, t := range d.tenants {
		if err := d.clients[t.owner].Complain(t.name, t.in.in.Complaints); err != nil {
			return err
		}
	}
	d.eachCaller(ctx, identity(len(d.tenants)), func(t *tenant) { d.diagnose(t, rec) })
	return nil
}

// eachCaller runs f over every caller's tenants, in the given order,
// the callers concurrently.
func (d *daemonDriver) eachCaller(ctx context.Context, order []int, f func(t *tenant)) {
	var wg sync.WaitGroup
	for c := 0; c < daemonCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range order {
				if t := d.tenants[i]; t.owner == c && ctx.Err() == nil {
					f(t)
				}
			}
		}(c)
	}
	wg.Wait()
}

func (d *daemonDriver) diagnose(t *tenant, rec *recorder) {
	sp := rec.begin(t.in)
	var resp *qfixd.Response
	var err error
	lat := timed(sp, "qfixd.Client.Diagnose", func() { resp, err = d.clients[t.owner].Diagnose(t.name, nil, nil) })
	rp := &reply{err: err}
	if err == nil {
		rp.resolved, rp.sql, rp.stats = resp.Resolved, resp.Log, resp.Stats
	}
	rec.done(t.in, t.want, lat, rp)
	sp.End()
}

// append adds one statement to the tenant's log: a point UPDATE of
// msc_location, which the generated history never reads or writes, on
// a subscriber no complaint names. The log grows and the store's
// caches have to follow, but complaints and reference repair stay
// valid. (An INSERT would not do: it writes every attribute, so query
// slicing makes each one a repair candidate and every later diagnosis
// would grow by an encode batch per append.)
func (d *daemonDriver) append(t *tenant, rec *recorder) {
	const mscLocation = 4
	q := query.NewUpdate(
		[]query.SetClause{{Attr: mscLocation, Expr: query.ConstExpr(float64(t.rng.Intn(1 << 20)))}},
		query.AttrPred(t.in.schema.Key(), query.EQ, t.keys[t.rng.Intn(len(t.keys))]))
	stmt := q.String(t.in.schema)
	var err error
	lat := timed(rec.span, "qfixd.Client.Append", func() { err = d.clients[t.owner].Append(t.name, stmt) })
	if err != nil {
		rec.fail(t.in, "append: "+err.Error())
		return
	}
	rec.appended(lat)
	t.appended = append(t.appended, stmt)
	t.want = t.want.add(stmt)
}

func (d *daemonDriver) pass(ctx context.Context, order []int, rec *recorder) {
	d.eachCaller(ctx, order, func(t *tenant) {
		for k := 0; k < repeatsPerAppend; k++ {
			d.diagnose(t, rec)
		}
		d.append(t, rec)
		d.diagnose(t, rec)
	})
}

// finish checks the daemon's last answers against an in-process
// core.Diagnose, CLI-default options, of the same final inputs.
func (d *daemonDriver) finish(rec *recorder) {
	for _, t := range d.tenants {
		extra, err := parseLog(t.in.schema, t.appended)
		if err != nil {
			rec.fail(t.in, "appended statements do not parse: "+err.Error())
			continue
		}
		log := append(query.CloneLog(t.in.in.Dirty), extra...)
		rep, err := core.Diagnose(t.in.in.W.D0, log, t.in.in.Complaints, cliOptions())
		switch {
		case err != nil:
			rec.fail(t.in, "reference diagnosis: "+err.Error())
		case !rep.Resolved:
			rec.fail(t.in, "reference diagnosis of the grown log is unresolved")
		case digestOf(renderLog(t.in.schema, rep.Log)) != t.want:
			rec.fail(t.in, "daemon repair of the grown log differs from in-process core.Diagnose")
		}
	}
}

// probe measures the wire and the store directly: the same diagnosis
// through the client and through Service.Diagnose, ping round trips,
// frame sizes, and histstore's operations on scratch copies.
func (d *daemonDriver) probe(ctx context.Context, rec *recorder, m map[string]float64) error {
	var pings []float64
	psp := rec.span.Start("qfixd.Client.Ping x200")
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := d.clients[0].Ping(); err != nil {
			psp.End()
			return err
		}
		pings = append(pings, us(time.Since(t0)))
	}
	psp.End()

	var viaClient, viaService time.Duration
	var reqBytes, respBytes int
	for _, t := range d.tenants {
		sp := rec.begin(t.in)
		var resp *qfixd.Response
		var err error
		viaClient += timed(sp, "qfixd.Client.Diagnose", func() { resp, err = d.clients[t.owner].Diagnose(t.name, nil, nil) })
		if err == nil {
			viaService += timed(sp, "qfixd.Service.Diagnose", func() { _, err = d.svc.Diagnose(ctx, t.name, nil, nil) })
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		req, _ := json.Marshal(&qfixd.Request{Version: qfixd.WireVersion, ID: 1, Op: qfixd.OpDiagnose, Tenant: t.name})
		out, _ := json.Marshal(resp) // both are plain data; Marshal cannot fail
		reqBytes += len(req) + 1
		respBytes += len(out) + 1
	}
	n := float64(len(d.tenants))
	m["qfixd.ping_rtt_us"] = median(pings)
	m["qfixd.service_diagnose_ms"] = ms(viaService) / n
	m["qfixd.wire_overhead_ms"] = ms(viaClient-viaService) / n
	m["qfixd.append_p50_ms"] = median(rec.appendLat)
	m["qfixd.request_bytes"] = float64(reqBytes) / n
	m["qfixd.response_bytes"] = float64(respBytes) / n
	m["qfixd.busy_refusals"] = float64(rec.busy)
	l := &rec.layers
	m["histstore.impact_cache_hits"] = ratio(float64(l.impactHits), float64(l.n))
	m["histstore.impact_cache_extends"] = ratio(float64(l.impactExtends), float64(l.n))
	return d.probeStores(rec, m)
}

// probeStores drives histstore's public operations on scratch copies of
// every fourth tenant (small and long-log both occur).
func (d *daemonDriver) probeStores(rec *recorder, m map[string]float64) error {
	var create, open, appendT, checkpoint, cold, warm time.Duration
	var stmts, stores int
	var logBytes int64
	for i := 0; i < len(d.tenants); i += 4 {
		t := d.tenants[i]
		dir := filepath.Join(d.dataDir(), "probe-"+t.name)
		sp := rec.begin(t.in)
		err := func() error {
			var st *histstore.Store
			var err error
			create += timed(sp, "histstore.Create", func() { st, err = histstore.Create(dir, t.in.in.W.D0) })
			if err != nil {
				return err
			}
			appendT += timed(sp, "histstore.Append", func() {
				for _, q := range t.in.in.Dirty {
					if err = st.Append(q); err != nil {
						return
					}
				}
			})
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			open += timed(sp, "histstore.Open", func() { st, err = histstore.Open(dir) })
			if err != nil {
				return err
			}
			defer st.Close()
			cold += timed(sp, "histstore.Diagnose", func() { _, err = st.Diagnose(t.in.in.Complaints, cliOptions()) })
			if err != nil {
				return err
			}
			warm += timed(sp, "histstore.Diagnose", func() { _, err = st.Diagnose(t.in.in.Complaints, cliOptions()) })
			if err != nil {
				return err
			}
			if fi, err := os.Stat(filepath.Join(dir, "log.sql")); err == nil {
				logBytes += fi.Size()
			}
			checkpoint += timed(sp, "histstore.Checkpoint", func() { err = st.Checkpoint() })
			return err
		}()
		sp.End()
		if err != nil {
			return fmt.Errorf("histstore probe, %s: %w", t.name, err)
		}
		stmts += len(t.in.in.Dirty)
		stores++
	}
	n := float64(stores)
	m["histstore.create_ms"] = ms(create) / n
	m["histstore.open_ms"] = ms(open) / n
	m["histstore.append_us"] = ratio(us(appendT), float64(stmts))
	m["histstore.checkpoint_ms"] = ms(checkpoint) / n
	m["histstore.diagnose_cold_ms"] = ms(cold) / n
	m["histstore.diagnose_warm_ms"] = ms(warm) / n
	m["histstore.bytes_per_stmt"] = ratio(float64(logBytes), float64(stmts))
	return nil
}
