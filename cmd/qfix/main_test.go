package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	qfix "repro"
	"repro/internal/oltp"
	"repro/internal/workload"
)

func TestLoadCSV(t *testing.T) {
	sch, tb, err := loadCSV("testdata/taxes.csv", "Taxes", "")
	if err != nil {
		t.Fatal(err)
	}
	if sch.Width() != 3 || tb.Len() != 4 {
		t.Fatalf("width=%d len=%d", sch.Width(), tb.Len())
	}
	tp, ok := tb.Get(2)
	if !ok || tp.Values[0] != 90000 {
		t.Errorf("tuple 2 = %v", tp.Values)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("a,b\n1,notanumber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCSV(bad, "t", ""); err == nil {
		t.Error("non-numeric cell accepted")
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCSV(empty, "t", ""); err == nil {
		t.Error("empty file accepted")
	}
	if _, _, err := loadCSV(filepath.Join(dir, "missing.csv"), "t", ""); err == nil {
		t.Error("missing file accepted")
	}
	for _, cell := range []string{"NaN", "Inf", "-inf", "+Infinity"} {
		if err := os.WriteFile(bad, []byte("a,b\n1,2\n3,"+cell+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		want := bad + " line 3: non-finite value " + strconv.Quote(cell)
		if _, _, err := loadCSV(bad, "t", ""); err == nil || err.Error() != want {
			t.Errorf("%s cell: error %v, want %s", cell, err, want)
		}
	}
}

// TestLoadCSVAllocatesOnce: loading N rows allocates the table's
// storage once, sized from the file, not regrown by Insert's appends,
// and the file once, with no string per record. What the load
// allocates in all, the schema included, stays under 1.1 times what the
// table keeps plus the size of the file; left to regrow, the table
// alone allocates about twice what it keeps, and encoding/csv's string
// per record costs about the file again (1.17 times the table plus the
// file in all).
func TestLoadCSVAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("counts bytes allocated, which the race detector inflates")
	}
	const rows, width = 5000, 6
	var data bytes.Buffer
	data.WriteString("a,b,c,d,e,f\n")
	for i := range rows {
		fmt.Fprintf(&data, "%d,%d,%d.5,%d,-%d,%d\n", i, i%7, i, i*3, i%11, 100000+i)
	}
	path := filepath.Join(t.TempDir(), "d0.csv")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	kept := uint64(rows * (1 + width) * 8) // an ID and the values per row
	limit := kept*11/10 + uint64(data.Len())
	var least uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, tb, err := loadCSV(path, "t", "")
		runtime.ReadMemStats(&after)
		if err != nil || tb.Len() != rows {
			t.Fatalf("loaded %v rows, error %v", tb, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; least == 0 || n < least {
			least = n
		}
	}
	if least > limit {
		t.Errorf("loading %d rows of %d values allocated %d bytes, want at most %d (1.1 × the %d the table keeps, plus the %d-byte file)",
			rows, width, least, limit, kept, data.Len())
	}
}

// TestLoadCSVFromPipe: a pipe, which stats with size 0 and cannot be
// read twice, loads the rows a regular file of the same bytes loads and
// reports a bad row at the same line.
func TestLoadCSVFromPipe(t *testing.T) {
	if _, err := os.Stat("/dev/fd"); err != nil {
		t.Skip("no /dev/fd to name a pipe by")
	}
	var data bytes.Buffer
	data.WriteString("a,b,c\n")
	for i := range 3000 { // past one 64 KiB buffer
		fmt.Fprintf(&data, "%d,%d.25,%d\n", i, i%13, 1000000+i)
	}
	viaPipe := func(content []byte) (*qfix.Table, error) {
		t.Helper()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		go func() {
			w.Write(content)
			w.Close()
		}()
		_, tb, err := loadCSV(fmt.Sprintf("/dev/fd/%d", r.Fd()), "t", "")
		return tb, err
	}
	path := filepath.Join(t.TempDir(), "d0.csv")
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want, err := loadCSV(path, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := viaPipe(data.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("pipe loaded %d rows, file %d", got.Len(), want.Len())
	}
	for i := range want.Len() {
		if g, w := got.At(i), want.At(i); g.ID != w.ID || !slices.Equal(g.Values, w.Values) {
			t.Fatalf("row %d: pipe %v, file %v", i, g, w)
		}
	}
	data.WriteString("1,2\n")
	_, err = viaPipe(data.Bytes())
	if want := " line 3002: wrong number of fields"; err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("ragged last row through a pipe: error %v, want one ending %q", err, want)
	}
}

// TestLoadCSVParity pins what the streaming loader owes the ReadAll one
// it replaced: quoted and padded cells load, and a ragged row, a bad
// number and a bad quote are each reported with the file's path and the
// physical line, blank lines counted, so a short row and a bad cell on
// the same line name the same number.
func TestLoadCSVParity(t *testing.T) {
	dir := t.TempDir()
	load := func(content string) (*qfix.Table, error) {
		t.Helper()
		path := filepath.Join(dir, "d.csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, tb, err := loadCSV(path, "t", "")
		return tb, err
	}
	tb, err := load("a, b\n\"1\",2\n\n\" 3 \",\"4e1\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Schema().Index("b"); !ok || tb.Len() != 2 {
		t.Fatalf("schema %v, %d rows", tb.Schema(), tb.Len())
	}
	if tp, _ := tb.Get(2); tp.Values[0] != 3 || tp.Values[1] != 40 {
		t.Errorf("tuple 2 = %v, want [3 40]", tp.Values)
	}
	for content, want := range map[string]string{
		"a,b\n1,2\n3\n":     filepath.Join(dir, "d.csv") + " line 3: wrong number of fields",
		"a,b\n1,2\n3,4,5\n": filepath.Join(dir, "d.csv") + " line 3: wrong number of fields",
		"a,b\n1,2\n3,x\n":   filepath.Join(dir, "d.csv") + ` line 3: strconv.ParseFloat: parsing "x": invalid syntax`,
		"a,b\n1,2\n\n3,\n":  filepath.Join(dir, "d.csv") + ` line 4: strconv.ParseFloat: parsing "": invalid syntax`,
		"a,b\n1,2\n\n3\n":   filepath.Join(dir, "d.csv") + " line 4: wrong number of fields",
		"a,b\n1,2\n\"3,4\n": filepath.Join(dir, "d.csv") + ` line 3: extraneous or missing " in quoted-field`,
		"a,a\n1,2\n":        `relation: schema "t" has duplicate attribute "a"`,
		"":                  filepath.Join(dir, "d.csv") + ": empty file",
	} {
		if _, err := load(content); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", content, err, want)
		}
	}
}

// TestCLIOutputGoldens runs the built binary and compares what it prints
// with the rendering recorded before output was buffered
// (testdata/*.golden: everything after the first line, which carries the
// elapsed time): the "*>" and three-space markers, the trailing ";", and
// for a diagnosis without a verified repair the WARNING last, exit
// status 1 and a silent standard error.
func TestCLIOutputGoldens(t *testing.T) {
	bin := buildCLI(t)
	firstLine := regexp.MustCompile(`^-- diagnosis completed in \S+$`)
	for _, c := range []struct {
		complaints, golden string
		exit               int
	}{
		{"testdata/complaints.txt", "testdata/resolved.golden", 0},
		{"testdata/unresolvable.txt", "testdata/unresolved.golden", 1},
	} {
		cmd := exec.Command(bin, "-data", "testdata/taxes.csv", "-log", "testdata/history.sql",
			"-complaints", c.complaints, "-table", "Taxes")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != c.exit || stderr.Len() != 0 {
			t.Errorf("%s: exit status %d (want %d), stderr %q (want none)", c.complaints, exit, c.exit, stderr.String())
		}
		first, rest, _ := strings.Cut(stdout.String(), "\n")
		if !firstLine.MatchString(first) {
			t.Errorf("%s: first line %q", c.complaints, first)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if rest != string(want) {
			t.Errorf("%s: printed\n%s\nwant\n%s", c.complaints, rest, want)
		}
	}
}

// TestReportFlagsLimitStops pins what a resolved repair that a solve
// reached at a limit prints: the not-proven-minimal warning right after
// the outcome line, which an optimal repair does not carry and an
// unresolved run leaves to its own warning.
func TestReportFlagsLimitStops(t *testing.T) {
	sch, err := qfix.NewSchema("t", []string{"a"}, "")
	if err != nil {
		t.Fatal(err)
	}
	log, err := qfix.ParseLog(sch, "UPDATE t SET a = 1 WHERE a >= 2;")
	if err != nil {
		t.Fatal(err)
	}
	const warning = "-- WARNING: not proven minimal: a solve stopped at a limit\n"
	for _, c := range []struct {
		resolved, stopped bool
		want              string
	}{
		{true, true, "-- complaints resolved: true; repair distance: 1.000\n" + warning +
			"*> UPDATE t SET a = 1 WHERE a >= 2;\n"},
		{true, false, "-- complaints resolved: true; repair distance: 1.000\n" +
			"*> UPDATE t SET a = 1 WHERE a >= 2;\n"},
		{false, true, "-- complaints resolved: false; repair distance: 1.000\n" +
			"*> UPDATE t SET a = 1 WHERE a >= 2;\n" +
			"-- WARNING: no verified repair found (infeasible or time limit)\n"},
	} {
		rep := &qfix.Repair{Log: log, Changed: []int{0}, Distance: 1, Resolved: c.resolved}
		if c.stopped {
			rep.Stats.TimeLimitStops = 1
		}
		var buf bytes.Buffer
		out := bufio.NewWriter(&buf)
		err := report(out, rep, sch, false)
		out.Flush()
		if (err == nil) != c.resolved {
			t.Errorf("resolved=%v: report returned %v", c.resolved, err)
		}
		if buf.String() != c.want {
			t.Errorf("resolved=%v stopped=%v: printed\n%s\nwant\n%s", c.resolved, c.stopped, buf.String(), c.want)
		}
	}
}

// TestRemovedFlagsRefused pins the CLI to one local diagnosis per
// process: the fleet, history-store and repeat flags are gone (qfixd
// serves those), and naming one is a usage error, exit status 2.
func TestRemovedFlagsRefused(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{{"-workers", "x"}, {"-mux"}, {"-hist", "d"}, {"-repeat", "2"}} {
		cmd := exec.Command(bin, append(args, "-data", "testdata/taxes.csv", "-log", "testdata/history.sql",
			"-complaints", "testdata/complaints.txt", "-table", "Taxes")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", args, err)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
		}
	}
}

// TestRefusesDataFinerThanEpsilon: values a WHERE clause compares that
// lie less than 1 apart are finer than the encoding's fixed ε = 0.5
// separates, and the diagnosis refuses them naming the attribute, in
// both slicing modes (without the check the first printed a wrong
// repair, WHERE a >= 0.9000000000000009 at distance 0.750, and the
// second found none). The same instance scaled by 10 still repairs to
// a >= 2.5, with the constant 1.5 lying between its data values.
func TestRefusesDataFinerThanEpsilon(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	write := func(name, body string) string { return writeFile(t, dir, name, body) }
	run := func(data, log, complaints string, extra ...string) (string, string, int) {
		return runCLI(t, bin, append([]string{"-data", data, "-log", log, "-complaints", complaints,
			"-table", "t", "-key", "id", "-algorithm", "basic"}, extra...)...)
	}

	data := write("d0.csv", "id,a,b\n1,0.1,0\n2,0.2,0\n3,0.3,0\n4,0.4,0\n")
	log := write("log.sql", "UPDATE t SET b = 1 WHERE a >= 0.15;\n")
	complaints := write("c.txt", "2,2,0.2,0\n")
	const refusal = "qfix: core: attribute a has values 0.1 and 0.2 less than 1 apart"
	for _, extra := range [][]string{nil, {"-no-tuple-slicing"}} {
		stdout, stderr, exit := run(data, log, complaints, extra...)
		if exit != 1 || !strings.HasPrefix(stderr, refusal) || stdout != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1 and stderr starting %q",
				extra, exit, stderr, stdout, refusal)
		}
	}

	data = write("d10.csv", "id,a,b\n1,1,0\n2,2,0\n3,3,0\n4,4,0\n")
	log = write("log10.sql", "UPDATE t SET b = 1 WHERE a >= 1.5;\n")
	complaints = write("c10.txt", "2,2,2,0\n")
	stdout, stderr, exit := run(data, log, complaints)
	const want = "-- complaints resolved: true; repair distance: 1.000\n*> UPDATE t SET b = 1 WHERE a >= 2.5;\n"
	if _, rest, _ := strings.Cut(stdout, "\n"); exit != 0 || stderr != "" || rest != want {
		t.Errorf("scaled by 10: exit %d, stderr %q, printed\n%s\nwant\n%s", exit, stderr, rest, want)
	}
}

// TestSatisfiedComplaintsNeedNoRepair: complaints the dirty final state
// already satisfies leave query slicing no candidate, and the log as it
// stands is the repair. Both algorithms print it as resolved with
// nothing changed and exit 0.
func TestSatisfiedComplaintsNeedNoRepair(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	data := writeFile(t, dir, "d.csv", "a,b\n1,10\n2,20\n")
	log := writeFile(t, dir, "h.sql", "UPDATE t SET b = 5 WHERE a >= 2;\n")
	complaints := writeFile(t, dir, "c.txt", "2,2,5\n")
	const want = "-- complaints resolved: true; repair distance: 0.000\n" +
		"-- no queries needed repair\n" +
		"   UPDATE t SET b = 5 WHERE a >= 2;\n"
	for _, algo := range []string{"incremental", "basic"} {
		stdout, stderr, exit := runCLI(t, bin, "-data", data, "-log", log, "-complaints", complaints, "-algorithm", algo)
		if _, rest, _ := strings.Cut(stdout, "\n"); exit != 0 || stderr != "" || rest != want {
			t.Errorf("%s: exit %d, stderr %q, printed\n%s\nwant\n%s", algo, exit, stderr, rest, want)
		}
	}
}

// TestTimeLimitBoundsCLISolve: the CLI's -timelimit bounds a solve that
// sits inside one long LP. Basic without tuple slicing on the 60-row,
// 30-statement generator log (seed 7, statement 0 corrupted; the root
// LP alone runs for about 4 s on two cores) returns within the limit
// plus a second for the process, and says that its repair is not proven
// minimal or that it found none.
func TestTimeLimitBoundsCLISolve(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound")
	}
	w, err := workload.Generate(workload.Config{ND: 60, Nq: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	var sql, complaints strings.Builder
	for _, q := range in.Dirty {
		sql.WriteString(q.String(w.Schema) + ";\n")
	}
	for _, c := range in.Complaints {
		complaints.WriteString(strconv.FormatInt(c.TupleID, 10))
		if !c.Exists {
			complaints.WriteString(",DELETED")
		}
		for _, v := range c.Values {
			complaints.WriteString("," + strconv.FormatFloat(v, 'g', -1, 64))
		}
		complaints.WriteByte('\n')
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	const limit = time.Second
	start := time.Now()
	stdout, stderr, _ := runCLI(t, bin, "-data", writeFile(t, dir, "d0.csv", csvText(w.D0)),
		"-log", writeFile(t, dir, "h.sql", sql.String()),
		"-complaints", writeFile(t, dir, "c.txt", complaints.String()),
		"-table", w.Schema.Name(), "-key", "id",
		"-algorithm", "basic", "-no-tuple-slicing", "-timelimit", limit.String())
	if elapsed := time.Since(start); elapsed > limit+time.Second {
		t.Errorf("a %v solve limit returned after %v", limit, elapsed)
	}
	if !strings.Contains(stdout, "not proven minimal") && !strings.Contains(stdout, "no verified repair found") {
		t.Errorf("output flags neither a limit-stopped repair nor a missing one; stderr %q, printed\n%s", stderr, stdout)
	}
}

// runCLI runs the built binary and returns what it printed on standard
// output and standard error, and its exit status.
func runCLI(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return stdout.String(), stderr.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// csvText renders a table as the CSV loadCSV reads: a header row of
// attribute names, then one row per tuple in ID order.
func csvText(tb *qfix.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(tb.Schema().Attrs(), ",") + "\n")
	for i := 0; i < tb.Len(); i++ {
		for a, v := range tb.At(i).Values {
			if a > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeFile writes body to dir/name and returns the path.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qfix")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestLoadComplaints(t *testing.T) {
	cs, err := loadComplaints("testdata/complaints.txt", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d complaints", len(cs))
	}
	if cs[0].TupleID != 3 || !cs[0].Exists || cs[0].Values[1] != 21500 {
		t.Errorf("complaint 0 = %+v", cs[0])
	}
}

func TestLoadComplaintsFormats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.txt")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("7,DELETED\n")
	cs, err := loadComplaints(path, 3)
	if err != nil || len(cs) != 1 || cs[0].Exists || cs[0].TupleID != 7 {
		t.Errorf("DELETED parse: %+v, %v", cs, err)
	}
	write("1,2\n") // arity mismatch for width 3
	if _, err := loadComplaints(path, 3); err == nil {
		t.Error("arity mismatch accepted")
	}
	write("x,1,2,3\n")
	if _, err := loadComplaints(path, 3); err == nil {
		t.Error("bad id accepted")
	}
	write("# only comments\n")
	if _, err := loadComplaints(path, 3); err == nil {
		t.Error("empty complaint file accepted")
	}
	for _, cell := range []string{"NaN", "Inf", "-Inf"} {
		write("# header\n3," + cell + ",21500,64500\n")
		want := path + " line 2: non-finite value " + strconv.Quote(cell)
		if _, err := loadComplaints(path, 3); err == nil || err.Error() != want {
			t.Errorf("%s value: error %v, want %s", cell, err, want)
		}
	}
}

func TestEndToEndFromFiles(t *testing.T) {
	// The CLI path without the process: load files, diagnose, verify.
	sch, d0, err := loadCSV("testdata/taxes.csv", "Taxes", "")
	if err != nil {
		t.Fatal(err)
	}
	sqlBytes, err := os.ReadFile("testdata/history.sql")
	if err != nil {
		t.Fatal(err)
	}
	history, err := qfix.ParseLog(sch, string(sqlBytes))
	if err != nil {
		t.Fatal(err)
	}
	complaints, err := loadComplaints("testdata/complaints.txt", sch.Width())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := qfix.Diagnose(d0, history, complaints, qfix.Options{
		Algorithm:    qfix.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Errorf("changed = %v, want [0]", rep.Changed)
	}
}

// BenchmarkLoadCSV times loading the initial state of an OLTP history:
// 2000 TATP subscriber rows of 6 attributes, written as the benchmark
// harness writes them.
func BenchmarkLoadCSV(b *testing.B) {
	d0 := oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1, Seed: 8}).D0
	path := filepath.Join(b.TempDir(), "d0.csv")
	if err := os.WriteFile(path, []byte(csvText(d0)), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, tb, err := loadCSV(path, "subscriber", "s_id"); err != nil || tb.Len() != d0.Len() {
			b.Fatalf("%d rows, error %v", tb.Len(), err)
		}
	}
}

// TestReportRendersInPlace: printing a repaired log renders each
// statement into the output's buffer, with no string per statement.
func TestReportRendersInPlace(t *testing.T) {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7})
	rep := &qfix.Repair{Log: w.Log, Changed: []int{3}, Resolved: true}
	out := bufio.NewWriter(io.Discard)
	allocs := testing.AllocsPerRun(3, func() {
		if err := report(out, rep, w.Schema, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(w.Log))/10 {
		t.Errorf("printing %d statements allocated %.0f times, want at most %d", len(w.Log), allocs, len(w.Log)/10)
	}
}

// TestParseCellMatchesParseFloat pins parseCell's whole-number fast
// path to strconv.ParseFloat of the trimmed cell: the same value bit for
// bit (negative zero included) and the same error text, on the cells
// the fast path takes and on the ones it must hand over.
func TestParseCellMatchesParseFloat(t *testing.T) {
	for _, cell := range []string{"0", "-0", "+7", "007", "-42", "123456789012345", "-123456789012345",
		"1234567890123456", "9007199254740993", " 12 ", "1e3", "1.5", "0x10", "1_0", "", "-", "--1", "12a", "NaN", "-Inf"} {
		got, err := parseCell(cell)
		want, wantErr := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if wantErr == nil && (math.IsNaN(want) || math.IsInf(want, 0)) {
			if err == nil {
				t.Errorf("parseCell(%q) = %v, want the non-finite value refused", cell, got)
			}
			continue
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("parseCell(%q) error %v, ParseFloat's %v", cell, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseCell(%q) = %v, ParseFloat %v", cell, got, want)
		}
	}
}
