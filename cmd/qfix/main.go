// Command qfix diagnoses data errors through a query history.
//
// It reads an initial database state (CSV with a header row), a SQL log
// (UPDATE/INSERT/DELETE statements separated by semicolons), and a
// complaint file, then prints the repaired log.
//
// Complaint file format, one complaint per line:
//
//	<tuple-id>,<v1>,<v2>,...   the tuple should end with these values
//	<tuple-id>,DELETED         the tuple should have been deleted
//
// Tuple IDs are 1-based insertion order of the CSV rows; tuples inserted
// by the log continue the sequence.
//
// Example:
//
//	qfix -data taxes.csv -log history.sql -complaints bad.txt -table Taxes
//
// Each run is one local diagnosis. Diagnosing over a qfix-worker fleet,
// from a history store, or again as the history grows is qfixd's job.
package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	qfix "repro"
	"repro/internal/obs"
)

// errUnresolved ends a run that printed its report and found no
// verified repair: exit status 1 with nothing on standard error, which
// is how a caller tells it from a fault.
var errUnresolved = errors.New("no verified repair")

func main() {
	// Everything the run prints goes through one buffer (a repaired log is
	// a line per statement), flushed here whichever way the run ends.
	out := bufio.NewWriter(os.Stdout)
	err := run(out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		if !errors.Is(err, errUnresolved) {
			fmt.Fprintln(os.Stderr, "qfix:", err)
		}
		os.Exit(1)
	}
}

func run(out *bufio.Writer) error {
	var (
		dataPath  = flag.String("data", "", "CSV file with header row: the initial state D0")
		logPath   = flag.String("log", "", "SQL file with the query history")
		compPath  = flag.String("complaints", "", "complaint file (id,v1,v2,... or id,DELETED)")
		tableName = flag.String("table", "t", "table name used in the SQL statements")
		keyAttr   = flag.String("key", "", "primary key attribute name (optional)")
		algo      = flag.String("algorithm", "incremental", "basic | incremental")
		k         = flag.Int("k", 1, "incremental batch size")
		partition = flag.String("partition", "0", "partition-parallel diagnosis workers (0 disables partitioning; 'auto' sizes from GOMAXPROCS)")
		solverPar = flag.String("solver-parallel", "1", "concurrent branch-and-bound LP workers inside each MILP solve (or 'auto'); repairs are identical at any setting")
		verbose   = flag.Bool("v", false, "print solver statistics (nodes, LP iterations, refactorizations, presolved rows, LP numerical and iteration-limit exits)")
		noTuple   = flag.Bool("no-tuple-slicing", false, "disable tuple slicing")
		noQuery   = flag.Bool("no-query-slicing", false, "disable query slicing")
		attrSlice = flag.Bool("attr-slicing", false, "enable attribute slicing")
		single    = flag.Bool("single", false, "assume a single corrupted query (strict candidate filter)")
		limit     = flag.Duration("timelimit", 60*time.Second, "per-solve time limit")
		tracePath = flag.String("trace", "", "record a diagnosis trace to this file (.jsonl/.ndjson = span lines, anything else = Chrome trace_event JSON for chrome://tracing)")
		metrics   = flag.String("metrics", "", "after diagnosing, dump process metrics to this file ('-' = stdout; .json = JSON, otherwise Prometheus text)")
	)
	flag.Parse()
	if *compPath == "" || *dataPath == "" || *logPath == "" {
		fmt.Fprintln(os.Stderr, "usage: qfix -data D0.csv -log history.sql -complaints bad.txt [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// The trace covers the whole run: the inputs' load and parse, then the diagnosis.
	var root *obs.Span
	if *tracePath != "" {
		root = obs.NewTrace("qfix")
	}
	sp := root.Start("load")
	sch, d0, err := loadCSV(*dataPath, *tableName, *keyAttr)
	if sp.End(); err != nil {
		return err
	}
	sp = root.Start("parse")
	sql, err := readText(*logPath)
	var history []qfix.Query
	if err == nil {
		history, err = qfix.ParseLog(sch, sql)
	}
	if sp.End(); err != nil {
		return err
	}
	sp = root.Start("load")
	complaints, err := loadComplaints(*compPath, sch.Width())
	if sp.End(); err != nil {
		return err
	}
	part, err := parsePool("partition", *partition)
	if err != nil {
		return err
	}
	spar, err := parsePool("solver-parallel", *solverPar)
	if err != nil {
		return err
	}

	opts := qfix.Options{
		K:                *k,
		Partition:        part,
		TupleSlicing:     !*noTuple,
		QuerySlicing:     !*noQuery,
		AttrSlicing:      *attrSlice,
		SingleCorruption: *single,
		SolverParallel:   spar,
		TimeLimit:        *limit,
	}
	opts.Trace = root
	switch *algo {
	case "basic":
		opts.Algorithm = qfix.Basic
	case "incremental", "inc":
		opts.Algorithm = qfix.Incremental
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	start := time.Now()
	rep, err := qfix.Diagnose(d0, history, complaints, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if root != nil {
		root.End()
		if err := writeTrace(root, *tracePath); err != nil {
			return err
		}
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, out); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "-- diagnosis completed in %v\n", elapsed.Round(time.Millisecond))
	return report(out, rep, sch, *verbose)
}

// report prints a finished diagnosis: the statistics lines, the outcome,
// and the repaired log with each changed statement marked "*>". A
// repaired log that some solve reached without proving its optimum is
// flagged as not proven minimal; a run without a verified repair ends
// with a warning and errUnresolved.
func report(out *bufio.Writer, rep *qfix.Repair, sch *qfix.Schema, verbose bool) error {
	for _, line := range rep.Stats.Format(verbose) {
		fmt.Fprintf(out, "-- %s\n", line)
	}
	fmt.Fprintf(out, "-- complaints resolved: %v; repair distance: %.3f\n", rep.Resolved, rep.Distance)
	if st := rep.Stats; rep.Resolved && st.NodeLimitStops+st.TimeLimitStops+st.LPIterLimits+st.LPNumFails > 0 {
		fmt.Fprintln(out, "-- WARNING: not proven minimal: a solve stopped at a limit")
	}
	if rep.Resolved && len(rep.Changed) == 0 {
		fmt.Fprintln(out, "-- no queries needed repair")
	}
	// Each statement is rendered straight into out's free space, not into
	// a string of its own first.
	for i, q := range rep.Log {
		marker := "   "
		if slices.Contains(rep.Changed, i) {
			marker = "*> "
		}
		line := q.AppendSQL(append(out.AvailableBuffer(), marker...), sch)
		out.Write(append(line, ";\n"...))
	}
	if !rep.Resolved {
		fmt.Fprintln(out, "-- WARNING: no verified repair found (infeasible or time limit)")
		return errUnresolved
	}
	return nil
}

// writeTrace exports the finished span tree: JSONL span lines for
// .jsonl/.ndjson paths, Chrome trace_event JSON otherwise.
func writeTrace(root *obs.Span, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, root, path); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the process-wide registry: JSON for .json paths,
// Prometheus text exposition otherwise; "-" writes text to stdout.
func writeMetrics(path string, stdout io.Writer) error {
	if path == "-" {
		return obs.Default().WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".json") {
		werr = obs.Default().WriteJSON(f)
	} else {
		werr = obs.Default().WritePrometheus(f)
	}
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

// parsePool parses a worker-pool size flag: an integer, or "auto" for
// adaptive sizing (Options treats -1 as "size from GOMAXPROCS").
func parsePool(name, s string) (int, error) {
	if strings.EqualFold(strings.TrimSpace(s), "auto") {
		return -1, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("-%s: want an integer or 'auto', got %q", name, s)
	}
	return n, nil
}

// loadCSV reads the initial state: header row of attribute names, then
// one row of numeric values per tuple. The file (or pipe) is read once,
// into one string sized from its Stat, and its lines are counted there,
// so that the table, the only other copy of the data, is allocated once
// at that many rows; Insert's appends would otherwise regrow its storage
// to about twice what it keeps, and a one-shot qfix never collects what
// they leave behind. A file without a quote or a carriage return, which
// is every file qfix and its benchmarks write, is split into lines and
// cells by byte; any other goes through encoding/csv over the same
// string, so quoting and every error it reports stay encoding/csv's.
func loadCSV(path, table, key string) (*qfix.Schema, *qfix.Table, error) {
	text, err := readText(path)
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Count(text, "\n") + 1 // the last may lack its newline
	rs := &records{text: text}
	if strings.IndexByte(text, '"') >= 0 || strings.IndexByte(text, '\r') >= 0 {
		rs.r = csv.NewReader(strings.NewReader(text))
		rs.r.ReuseRecord = true
	}
	// Every error names the file and the physical line, blank lines
	// counted, as loadComplaints does; encoding/csv's name no file.
	fail := func(field int, err error) error {
		return fmt.Errorf("%s line %d: %v", path, rs.lineOf(field), err)
	}
	rec, err := rs.next()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("%s: empty file", path)
	}
	if err != nil {
		return nil, nil, fail(0, err)
	}
	header := make([]string, len(rec))
	for i, h := range rec {
		header[i] = strings.TrimSpace(h)
	}
	sch, err := qfix.NewSchema(table, header, key)
	if err != nil {
		return nil, nil, err
	}
	tb := qfix.NewTable(sch)
	// Every line but the header's may be a row.
	tb.Grow(lines - 1)
	vals := make([]float64, len(header)) // Insert copies it
	for {
		rec, err := rs.next()
		if err == io.EOF {
			return sch, tb, nil
		}
		if err == nil && len(rec) != len(header) {
			err = csv.ErrFieldCount
		}
		if err != nil {
			return nil, nil, fail(0, err)
		}
		for i, cell := range rec {
			if vals[i], err = parseCell(cell); err != nil {
				return nil, nil, fail(i, err)
			}
		}
		tb.MustInsert(vals...) // of the header's width, checked above
	}
}

// records reads a CSV text's records: through r, an encoding/csv
// reader, or (r nil, no quote or carriage return) split as encoding/csv
// splits it, a record per non-blank line and a cell per comma.
type records struct {
	r    *csv.Reader
	text string // what is left to split
	line int    // the physical line of the record split last; under r, of r's error
	rec  []string
}

// next returns the next record, valid until the following call, or
// io.EOF after the last.
func (rs *records) next() ([]string, error) {
	if rs.r != nil {
		rec, err := rs.r.Read()
		if pe, ok := err.(*csv.ParseError); ok {
			rs.line, err = pe.Line, pe.Err
		}
		return rec, err
	}
	for rs.text != "" {
		var l string
		l, rs.text, _ = strings.Cut(rs.text, "\n")
		rs.line++
		if l == "" {
			continue
		}
		rs.rec = rs.rec[:0]
		for i := strings.IndexByte(l, ','); i >= 0; i = strings.IndexByte(l, ',') {
			rs.rec, l = append(rs.rec, l[:i]), l[i+1:]
		}
		rs.rec = append(rs.rec, l)
		return rs.rec, nil
	}
	return nil, io.EOF
}

// lineOf returns the physical line the given cell of the last record
// starts on, or after an error of r the line r reported it on.
func (rs *records) lineOf(field int) int {
	if rs.r == nil || rs.line != 0 {
		return rs.line
	}
	line, _ := rs.r.FieldPos(field)
	return line
}

// readText returns a file's contents as one string, allocated once at
// the file's size: the bytes go from the file straight into the string
// that sqlparse reads, with no []byte copy of them in between.
func readText(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var text strings.Builder
	if st, err := f.Stat(); err == nil {
		text.Grow(int(st.Size()))
	}
	var chunk [8 << 10]byte
	for {
		n, err := f.Read(chunk[:])
		text.Write(chunk[:n])
		if err == io.EOF {
			return text.String(), nil
		}
		if err != nil {
			return "", err
		}
	}
}

// parseCell parses one numeric cell of either file. NaN and the
// infinities are refused: the encoder sizes its big-M from finite data,
// and no repair can reach a non-finite target.
func parseCell(cell string) (float64, error) {
	cell = strings.TrimSpace(cell)
	if v, ok := wholeCell(cell); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("non-finite value %q", cell)
	}
	return v, err
}

// wholeCell converts a cell of 1–15 decimal digits, after at most one
// leading '-', without strconv.ParseFloat's general path: below 2^53 it
// is exactly float64 of its integer, which is what ParseFloat returns
// ("-0" included, negative zero). false sends the cell to ParseFloat.
func wholeCell(cell string) (float64, bool) {
	digits := strings.TrimPrefix(cell, "-")
	if len(digits) == 0 || len(digits) > 15 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	if len(digits) < len(cell) {
		return -float64(n), true
	}
	return float64(n), true
}

// loadComplaints parses the complaint file.
func loadComplaints(path string, width int) ([]qfix.Complaint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []qfix.Complaint
	for li, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		id, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: bad tuple id: %v", path, li+1, err)
		}
		if len(parts) == 2 && strings.EqualFold(strings.TrimSpace(parts[1]), "DELETED") {
			out = append(out, qfix.Complaint{TupleID: id, Exists: false})
			continue
		}
		if len(parts)-1 != width {
			return nil, fmt.Errorf("%s line %d: %d values, schema has %d attributes",
				path, li+1, len(parts)-1, width)
		}
		vals := make([]float64, width)
		for i, cell := range parts[1:] {
			v, err := parseCell(cell)
			if err != nil {
				return nil, fmt.Errorf("%s line %d: %v", path, li+1, err)
			}
			vals[i] = v
		}
		out = append(out, qfix.Complaint{TupleID: id, Exists: true, Values: vals})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no complaints", path)
	}
	return out, nil
}
