package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// cliDriver is cli_oltp_cold: one qfix process per diagnosis, default
// flags, inputs read from files.
type cliDriver struct {
	specs []instSpec
	dir   string
	bin   string
	insts []*instance
	files [][3]string // data, log, complaints per instance
}

func (d *cliDriver) instances() []*instance { return d.insts }
func (d *cliDriver) callers() int           { return 1 }
func (d *cliDriver) teardown()              {}
func (d *cliDriver) finish(*recorder)       {}

func (d *cliDriver) setup(ctx context.Context, rec *recorder) (err error) {
	if d.bin == "" {
		return errors.New("no qfix binary")
	}
	if d.insts, err = buildAll(d.specs); err != nil {
		return err
	}
	d.files = make([][3]string, len(d.insts))
	for i, in := range d.insts {
		dir := filepath.Join(d.dir, "cli", strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		d.files[i] = [3]string{filepath.Join(dir, "data.csv"), filepath.Join(dir, "log.sql"), filepath.Join(dir, "complaints.txt")}
		if err := writeCLIInputs(in, d.files[i]); err != nil {
			return err
		}
	}
	d.pass(ctx, identity(len(d.insts)), rec)
	return nil
}

// writeCLIInputs renders an instance in the qfix CLI's file formats.
func writeCLIInputs(in *instance, files [3]string) error {
	var data bytes.Buffer
	data.WriteString(strings.Join(in.schema.Attrs(), ",") + "\n")
	in.in.W.D0.Rows(func(t relation.Tuple) {
		for a, v := range t.Values {
			if a > 0 {
				data.WriteByte(',')
			}
			data.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		data.WriteByte('\n')
	})
	var complaints bytes.Buffer
	for _, c := range in.in.Complaints {
		complaints.WriteString(strconv.FormatInt(c.TupleID, 10))
		if !c.Exists {
			complaints.WriteString(",DELETED\n")
			continue
		}
		for _, v := range c.Values {
			complaints.WriteByte(',')
			complaints.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		complaints.WriteByte('\n')
	}
	for i, content := range [][]byte{data.Bytes(), []byte(strings.Join(in.sql, ";\n") + ";\n"), complaints.Bytes()} {
		if err := os.WriteFile(files[i], content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// exec runs qfix on instance i and decodes what it printed. With
// watchRSS it also samples the process's peak resident set while it
// runs; only the untimed cold pass asks for that.
func (d *cliDriver) exec(ctx context.Context, i int, watchRSS bool) *reply {
	f := d.files[i]
	cmd := exec.CommandContext(ctx, d.bin, "-data", f[0], "-log", f[1], "-complaints", f[2],
		"-table", d.insts[i].schema.Name())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	rp := &reply{}
	err := cmd.Start()
	if err == nil {
		if watchRSS {
			rp.rssMB = peakRSS(cmd)
		}
		err = cmd.Wait()
	}
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1 && stderr.Len() == 0) {
		// Exit 1 with a silent stderr is qfix's "no verified repair";
		// anything else is a fault.
		rp.err = fmt.Errorf("qfix: %v: %s", err, strings.TrimSpace(stderr.String()))
		return rp
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "-- complaints resolved: true"):
			rp.resolved = true
		case strings.HasPrefix(line, "--") || len(line) < 4:
		default: // "*> stmt;" or "   stmt;"
			rp.sql = append(rp.sql, strings.TrimSuffix(line[3:], ";"))
		}
	}
	return rp
}

// peakRSS polls VmHWM, the kernel's high-water mark of the started
// process's resident set, every millisecond until the process is gone,
// and returns the last reading in MB. The rusage that wait returns will
// not do: a child's ru_maxrss starts from the resident set of the
// process that forked it, so it reads as this harness's memory (90 MB
// and more), not qfix's (about 15 MB). The mark only rises and the last
// thing qfix does is print, so the last reading is the peak to within
// what the final millisecond adds.
func peakRSS(cmd *exec.Cmd) float64 {
	status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
	var kb float64
	for {
		data, err := os.ReadFile(status)
		if err != nil {
			return kb / 1024
		}
		_, rest, found := strings.Cut(string(data), "VmHWM:")
		if !found {
			return kb / 1024 // a zombie has no memory map: qfix has exited
		}
		fmt.Sscan(rest, &kb)
		time.Sleep(time.Millisecond)
	}
}

func (d *cliDriver) pass(ctx context.Context, order []int, rec *recorder) {
	for _, i := range order {
		if ctx.Err() != nil {
			return
		}
		in := d.insts[i]
		sp := rec.begin(in)
		var rp *reply
		lat := timed(sp, "cmd/qfix", func() { rp = d.exec(ctx, i, rec.cold) })
		rec.done(in, in.want, lat, rp)
		sp.End()
	}
}

// probe splits the CLI's wall clock: what the same inputs cost in this
// process (load them the way qfix does, diagnose) and what is left over
// for process start, runtime initialisation and printing.
func (d *cliDriver) probe(ctx context.Context, rec *recorder, m map[string]float64) error {
	var load, inProc, cli time.Duration
	for i, in := range d.insts {
		sp := rec.begin(in)
		var err error
		var tb *relation.Table
		load += timed(sp, "load", func() { tb, err = loadLikeQfix(in.schema, d.files[i]) })
		if err == nil {
			inProc += timed(sp, "core.Diagnose", func() {
				_, err = core.Diagnose(tb, in.in.Dirty, in.in.Complaints, cliOptions())
			})
		}
		var rp *reply
		cli += timed(sp, "cmd/qfix", func() { rp = d.exec(ctx, i, false) })
		sp.End()
		if err == nil {
			err = rp.err
		}
		if err != nil {
			return fmt.Errorf("%v: %w", in.spec, err)
		}
	}
	n := float64(len(d.insts))
	m["cmd_qfix.load_ms"] = ms(load) / n
	m["cmd_qfix.process_overhead_ms"] = ms(cli-load-inProc) / n
	m["cmd_qfix.peak_rss_mb"] = ratio(sum(rec.rss), float64(len(rec.rss)))
	return nil
}

// loadLikeQfix reads the data and log files the way cmd/qfix does (its
// loader is not importable): CSV records to rows, the SQL file through
// sqlparse.ParseLog.
func loadLikeQfix(sch *relation.Schema, files [3]string) (*relation.Table, error) {
	f, err := os.Open(files[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	tb := relation.NewTable(sch)
	for _, rec := range records[1:] {
		vals := make([]float64, len(rec))
		for i, cell := range rec {
			if vals[i], err = strconv.ParseFloat(cell, 64); err != nil {
				return nil, err
			}
		}
		if _, err := tb.Insert(vals); err != nil {
			return nil, err
		}
	}
	sql, err := os.ReadFile(files[1])
	if err != nil {
		return nil, err
	}
	_, err = sqlparse.ParseLog(sch, string(sql))
	return tb, err
}
