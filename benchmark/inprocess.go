package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	qfix "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// buildAll regenerates the run's instances and numbers them.
func buildAll(specs []instSpec) ([]*instance, error) {
	insts := make([]*instance, len(specs))
	for i, s := range specs {
		in, err := s.build()
		if err != nil {
			return nil, err
		}
		in.id = i
		insts[i] = in
	}
	return insts, nil
}

// identity is the cold pass's order.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// libraryPass is one pass of a single-caller workload that diagnoses
// through a Go call: time the call, then verify outside the interval.
func libraryPass(ctx context.Context, insts []*instance, order []int, rec *recorder, name string,
	diagnose func(in *instance) (*core.Repair, error)) {
	for _, i := range order {
		if ctx.Err() != nil {
			return
		}
		in := insts[i]
		sp := rec.begin(in)
		var rep *core.Repair
		var err error
		lat := timed(sp, name, func() { rep, err = diagnose(in) })
		rp := &reply{err: err}
		if rep != nil {
			rp.resolved, rp.repair, rp.stats = rep.Resolved, rep, &rep.Stats
		}
		rec.done(in, in.want, lat, rp)
		sp.End()
	}
}

// solverDriver is solver_deep: qfix.Diagnose in process, one caller.
type solverDriver struct {
	specs []instSpec
	insts []*instance
}

func (d *solverDriver) instances() []*instance { return d.insts }
func (d *solverDriver) callers() int           { return 1 }
func (d *solverDriver) teardown()              {}
func (d *solverDriver) finish(*recorder)       {}

func (d *solverDriver) setup(ctx context.Context, rec *recorder) (err error) {
	if d.insts, err = buildAll(d.specs); err != nil {
		return err
	}
	d.pass(ctx, identity(len(d.insts)), rec)
	return nil
}

func (d *solverDriver) pass(ctx context.Context, order []int, rec *recorder) {
	libraryPass(ctx, d.insts, order, rec, "qfix.Diagnose", func(in *instance) (*core.Repair, error) {
		return qfix.Diagnose(in.in.W.D0, in.in.Dirty, in.in.Complaints, cliOptions())
	})
}

func (d *solverDriver) probe(context.Context, *recorder, map[string]float64) error { return nil }

// fleetPartition is fleet_partitioned's Options.Partition and its
// worker count.
const fleetPartition = 2

// fleetDriver is fleet_partitioned: a mux coordinator over two
// dist.Server workers on loopback TCP, one caller.
type fleetDriver struct {
	specs   []instSpec
	insts   []*instance
	servers []*dist.Server
	served  sync.WaitGroup
	coord   *dist.Coordinator
}

func (d *fleetDriver) instances() []*instance { return d.insts }
func (d *fleetDriver) callers() int           { return 1 }
func (d *fleetDriver) finish(*recorder)       {}

func (d *fleetDriver) setup(ctx context.Context, rec *recorder) (err error) {
	if d.insts, err = buildAll(d.specs); err != nil {
		return err
	}
	if err := d.start(); err != nil {
		return err
	}
	d.pass(ctx, identity(len(d.insts)), rec)
	return nil
}

// start brings up the workers and connects the coordinator.
func (d *fleetDriver) start() error {
	var addrs []string
	for i := 0; i < fleetPartition; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &dist.Server{}
		d.servers = append(d.servers, srv)
		d.served.Add(1)
		go func() {
			defer d.served.Done()
			srv.Serve(l) // returns nil once teardown closes the server
		}()
		addrs = append(addrs, l.Addr().String())
	}
	d.coord = dist.Connect(dist.Config{Mux: true}, addrs...)
	return nil
}

func (d *fleetDriver) teardown() {
	if d.coord != nil {
		d.coord.Close()
		d.coord = nil
	}
	for _, srv := range d.servers {
		srv.Close()
	}
	d.served.Wait()
	d.servers = nil
}

func (d *fleetDriver) diagnose(in *instance) (*core.Repair, error) {
	return d.coord.Diagnose(in.in.W.D0, in.in.Dirty, in.in.Complaints, diagOptions(fleetPartitioned))
}

func (d *fleetDriver) pass(ctx context.Context, order []int, rec *recorder) {
	libraryPass(ctx, d.insts, order, rec, "dist.Coordinator.Diagnose", d.diagnose)
}

// captureSolver stands between the engine and the coordinator for one
// probe diagnosis, to get hold of a real partition subproblem and its
// repair for the wire measurements.
type captureSolver struct {
	inner core.PartitionSolver
	mu    sync.Mutex
	sub   *core.Subproblem
	rep   *core.Repair
}

func (c *captureSolver) SolvePartition(sub core.Subproblem) (*core.Repair, error) {
	rep, err := c.inner.SolvePartition(sub)
	c.mu.Lock()
	if c.sub == nil && err == nil {
		s := sub
		s.Options.Trace = nil
		c.sub, c.rep = &s, rep
	}
	c.mu.Unlock()
	return rep, err
}

// probe measures the job and result wire path on one real partition
// per instance, and reports the fleet counters of the timed passes.
func (d *fleetDriver) probe(ctx context.Context, rec *recorder, m map[string]float64) error {
	var encJob, decJob time.Duration
	var jobBytes, resBytes, n int
	fallbacks := d.coord.LocalFallbacks()
	for _, in := range d.insts {
		sp := rec.begin(in)
		cs := &captureSolver{inner: d.coord.Solver()}
		opt := diagOptions(fleetPartitioned)
		opt.PartitionSolver = cs
		var err error
		timed(sp, "core.Diagnose(fleet)", func() {
			_, err = core.Diagnose(in.in.W.D0, in.in.Dirty, in.in.Complaints, opt)
		})
		if err == nil && cs.sub == nil {
			err = fmt.Errorf("no partition reached the fleet")
		}
		if err == nil {
			err = wireProbe(sp, cs, &encJob, &decJob, &jobBytes, &resBytes)
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("%v: %w", in.spec, err)
		}
		n++
	}
	l := &rec.layers
	per := float64(l.n)
	m["dist.encode_job_ms"] = ms(encJob) / float64(n)
	m["dist.decode_job_ms"] = ms(decJob) / float64(n)
	m["dist.job_bytes"] = float64(jobBytes) / float64(n)
	m["dist.result_bytes"] = float64(resBytes) / float64(n)
	m["dist.remote_jobs"] = ratio(float64(l.remote), per)
	m["dist.local_fallbacks"] = float64(fallbacks)
	m["dist.worker_cache_hits"] = ratio(float64(l.workerCacheHits), per)
	m["dist.streamed_results"] = ratio(float64(l.streamed), per)
	m["dist.queue_wait_ms"] = ratio(ms(l.queueWait), float64(l.partStats))
	m["dist.worker_solve_ms"] = ratio(ms(l.partSolve), float64(l.partStats))
	return nil
}

// wireProbe round-trips the captured subproblem and repair through the
// wire codecs the way coordinator and worker do, JSON included.
func wireProbe(sp *obs.Span, cs *captureSolver, encJob, decJob *time.Duration, jobBytes, resBytes *int) error {
	var job *dist.Job
	var res *dist.Result
	var err error
	var frame []byte
	*encJob += timed(sp, "dist.EncodeJob", func() {
		if job, err = dist.EncodeJob(1, *cs.sub); err == nil {
			frame, err = json.Marshal(job)
		}
	})
	if err != nil {
		return err
	}
	*jobBytes += len(frame)
	*decJob += timed(sp, "dist.DecodeJob", func() {
		var back dist.Job
		if err = json.Unmarshal(frame, &back); err == nil {
			_, err = dist.DecodeJob(&back)
		}
	})
	if err != nil {
		return err
	}
	timed(sp, "dist.EncodeResult", func() {
		if res, err = dist.EncodeResult(1, cs.rep, nil); err == nil {
			frame, err = json.Marshal(res)
		}
	})
	if err != nil {
		return err
	}
	*resBytes += len(frame)
	timed(sp, "dist.DecodeResult", func() {
		var back dist.Result
		if err = json.Unmarshal(frame, &back); err == nil {
			_, err = dist.DecodeResult(&back)
		}
	})
	return err
}
