// Package histstore persists the inputs QFix needs — a checkpointed
// database state D0 and the append-only query log that ran after it — in
// a plain-text directory layout, and restores them for diagnosis.
//
// The paper assumes "the system only maintains D0 and Dn ... D0 can be a
// checkpoint" (§3.1). This package is that checkpoint mechanism: a
// deployment snapshots its table, appends every update statement as it
// executes, and hands the directory to QFix when complaints arrive.
//
// Layout:
//
//	dir/meta.txt      table name, key attribute, attribute names
//	dir/snapshot.csv  D0: a "qfixsnap,2,<nextid>,<gen>" header record,
//	                  then one "<tuple-id>,<v1>,...,<vn>" row per tuple
//	dir/log.sql       a "-- qfixlog gen <gen>" header, then one
//	                  statement per line, append-only
//
// Tuple IDs and the insert counter are persisted explicitly (format 2)
// so identities survive checkpoint and reopen even after DELETEs — a
// store whose complaints and caches are keyed by TupleID must never
// renumber surviving rows. A snapshot.csv without the header record is
// not a store and fails Open.
//
// The generation number is the checkpoint commit protocol: Checkpoint
// writes the new snapshot under a temporary name and renames it into
// place, and the rename is the commit point — the snapshot's gen no
// longer matches the old log's header, so Open treats that log as stale
// (pre-checkpoint) and discards it. A crash at any step leaves the
// store openable and consistent: either entirely pre-checkpoint or
// entirely post-checkpoint, never a new snapshot with the old log
// silently replayed on top.
//
// Everything is line-oriented text so the store remains greppable and
// diffable; durability relies on O_APPEND + Sync, which is adequate for
// a reproduction (a production system would layer a WAL with checksums).
//
// A store also owns a core.ImpactCache: Diagnose installs it, so repeat
// diagnoses of the same log reuse the FullImpact closure, and Append
// eagerly extends the cached closure (core.ExtendFullImpact) so a
// diagnosis after appends starts from a warm closure. The cache is keyed
// by the store's own statements, which the log keeps for the life of a
// generation, so neither path renders or hashes any SQL.
//
// In memory a store keeps, per logged statement, the parsed query and
// the statement's canonical SQL: the line Append writes, or — rendered
// by the first DiagnoseView after Open — Query.String of what Open
// parsed (not the file's bytes: a hand-edited log.sql need not be
// canonical). That is a 16-byte string header plus the text, which is
// the statement's line in log.sql less the ";\n" — ~63 B a statement on
// the benchmark's TATP logs. DiagnoseView hands the text out with the
// repair, so a caller that renders answers (internal/qfixd) prints only
// the statements the repair rewrote (core.Repair.Rewritten) and reuses
// the rest. Checkpoint drops it with the log.
package histstore

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// snapMagic marks a format-2 snapshot header record.
const snapMagic = "qfixsnap"

// snapFormat is the snapshot format this package writes.
const snapFormat = 2

// logGenPrefix starts the log's generation header line. It is a SQL
// comment, so anything that reads the log as SQL skips it naturally.
const logGenPrefix = "-- qfixlog gen "

// Store is an open history directory. A Store is safe for concurrent
// use: writers (Append, Checkpoint, Close) serialize behind a write
// lock, readers take a read lock, and Diagnose snapshots the history
// under the read lock but runs the actual diagnosis unlocked — so a
// resident service (internal/qfixd) can keep appending to a tenant's
// store while a long diagnosis of its earlier state is in flight. The
// snapshot discipline is what makes the unlocked run sound: the log is
// append-only (a reader's slice header never sees later entries) and
// Checkpoint replaces the d0 pointer rather than mutating the table, so
// a diagnosis always sees the consistent (d0, log, gen) triple it
// captured.
type Store struct {
	mu     sync.RWMutex
	dir    string
	schema *relation.Schema
	d0     *relation.Table // guarded by mu
	log    []query.Query   // guarded by mu
	// text[i] is log[i].String(schema). It covers a prefix of the log
	// and, like the log, only ever grows by appending within a
	// generation: Append extends it when it covers the whole log,
	// DiagnoseView renders whatever is missing (everything, the first
	// time after Open).
	text []string // guarded by mu
	logF *os.File // guarded by mu
	// gen is the checkpoint generation (>= 1).
	gen int64 // guarded by mu
	// cache holds the store's FullImpact closures, keyed by the
	// statements they cover; Append extends the one covering the log.
	cache *core.ImpactCache
}

// Create initializes a new history directory with the given checkpoint
// state. The directory must not already contain a store.
func Create(dir string, d0 *relation.Table) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "meta.txt")); err == nil {
		return nil, fmt.Errorf("histstore: %s already contains a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sch := d0.Schema()

	var meta strings.Builder
	fmt.Fprintf(&meta, "table %s\n", sch.Name())
	if sch.Key() >= 0 {
		fmt.Fprintf(&meta, "key %s\n", sch.Attr(sch.Key()))
	}
	fmt.Fprintf(&meta, "attrs %s\n", strings.Join(sch.Attrs(), ","))
	const gen = 1
	if err := writeSnapshot(filepath.Join(dir, "snapshot.csv"), d0, gen); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte(meta.String()), 0o644); err != nil {
		return nil, err
	}
	logF, err := freshLog(dir, gen)
	if err != nil {
		return nil, err
	}
	syncDir(dir)
	mOpens.Inc()
	return &Store{dir: dir, schema: sch, d0: d0.Clone(), logF: logF, gen: gen,
		cache: core.NewImpactCache(0)}, nil
}

// writeSnapshot writes a format-2 snapshot (header record, then one
// ID-prefixed row per tuple) to path and syncs it.
func writeSnapshot(path string, tb *relation.Table, gen int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	werr := w.Write([]string{snapMagic, strconv.Itoa(snapFormat),
		strconv.FormatInt(tb.NextID(), 10), strconv.FormatInt(gen, 10)})
	tb.Rows(func(t relation.Tuple) {
		rec := make([]string, 1+len(t.Values))
		rec[0] = strconv.FormatInt(t.ID, 10)
		for i, v := range t.Values {
			if (math.IsNaN(v) || math.IsInf(v, 0)) && werr == nil {
				// Open refuses such a cell, so the file is never committed.
				werr = fmt.Errorf("histstore: tuple %d: non-finite value %g", t.ID, v)
			}
			rec[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := w.Write(rec); err != nil && werr == nil {
			werr = err
		}
	})
	w.Flush()
	if werr == nil {
		werr = w.Error()
	}
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
	}
	return werr
}

// freshLog replaces log.sql with an empty generation-stamped log via
// temp-file-and-rename and reopens it for appending.
func freshLog(dir string, gen int64) (*os.File, error) {
	path := filepath.Join(dir, "log.sql")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	_, werr := fmt.Fprintf(f, "%s%d\n", logGenPrefix, gen)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return nil, werr
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// syncDir flushes directory metadata (renames, creates) best-effort.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// readSnapshot loads snapshot.csv, restoring explicit tuple IDs, the
// insert counter and the checkpoint generation.
func readSnapshot(path string, sch *relation.Schema) (*relation.Table, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	rd.FieldsPerRecord = -1 // header and rows differ in width
	records, err := rd.ReadAll()
	if err != nil {
		return nil, 0, fmt.Errorf("histstore: snapshot: %w", err)
	}
	if len(records) == 0 || records[0][0] != snapMagic {
		return nil, 0, fmt.Errorf("histstore: snapshot: not a qfix snapshot (no %s header)", snapMagic)
	}

	hdr := records[0]
	if len(hdr) != 4 {
		return nil, 0, fmt.Errorf("histstore: snapshot: malformed %s header", snapMagic)
	}
	format, err := strconv.Atoi(hdr[1])
	if err != nil || format != snapFormat {
		return nil, 0, fmt.Errorf("histstore: snapshot format %q not supported (want %d)", hdr[1], snapFormat)
	}
	nextID, err := strconv.ParseInt(hdr[2], 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("histstore: snapshot: bad nextid %q", hdr[2])
	}
	gen, err := strconv.ParseInt(hdr[3], 10, 64)
	if err != nil || gen < 1 {
		return nil, 0, fmt.Errorf("histstore: snapshot: bad generation %q", hdr[3])
	}
	rows := make([]relation.Tuple, 0, len(records)-1)
	for li, rec := range records[1:] {
		if len(rec) != sch.Width()+1 {
			return nil, 0, fmt.Errorf("histstore: snapshot line %d: %d fields, want id + %d values",
				li+2, len(rec), sch.Width())
		}
		id, err := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("histstore: snapshot line %d: bad tuple id: %w", li+2, err)
		}
		vals, err := parseValues(rec[1:], li+2)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, relation.Tuple{ID: id, Values: vals})
	}
	tb, err := relation.NewTableFromRows(sch, rows, nextID)
	if err != nil {
		return nil, 0, fmt.Errorf("histstore: snapshot: %w", err)
	}
	return tb, gen, nil
}

// parseValues parses one snapshot row's value cells. NaN and the
// infinities are refused, as the qfix CLI refuses them in its D0: the
// encoder sizes its big-M from finite data.
func parseValues(cells []string, line int) ([]float64, error) {
	vals := make([]float64, len(cells))
	for i, cell := range cells {
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil {
			return nil, fmt.Errorf("histstore: snapshot line %d: %w", line, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("histstore: snapshot line %d: non-finite value %q", line, strings.TrimSpace(cell))
		}
		vals[i] = v
	}
	return vals, nil
}

// Open loads an existing history directory.
func Open(dir string) (*Store, error) {
	metaBytes, err := os.ReadFile(filepath.Join(dir, "meta.txt"))
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	var table, key string
	var attrs []string
	for _, line := range strings.Split(string(metaBytes), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "table "):
			table = strings.TrimPrefix(line, "table ")
		case strings.HasPrefix(line, "key "):
			key = strings.TrimPrefix(line, "key ")
		case strings.HasPrefix(line, "attrs "):
			attrs = strings.Split(strings.TrimPrefix(line, "attrs "), ",")
		}
	}
	sch, err := relation.NewSchema(table, attrs, key)
	if err != nil {
		return nil, fmt.Errorf("histstore: bad meta: %w", err)
	}

	d0, gen, err := readSnapshot(filepath.Join(dir, "snapshot.csv"), sch)
	if err != nil {
		return nil, err
	}

	var log []query.Query
	logGen := int64(-1)
	logPath := filepath.Join(dir, "log.sql")
	if f, err := os.Open(logPath); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		ln := 0
		for sc.Scan() {
			ln++
			line := strings.TrimSpace(sc.Text())
			if ln == 1 {
				if g, ok := parseLogGen(line); ok {
					logGen = g
					if logGen != gen {
						// Stale pre-checkpoint log: stop before parsing
						// any statements — crash recovery must not
						// depend on the contents of a file it is about
						// to discard (a torn line in it is fine).
						break
					}
					continue
				}
				// A store's log always opens with its generation
				// header (freshLog writes it first); a headerless
				// file is stale or foreign. Same rule: don't parse
				// what will be discarded.
				break
			}
			if line == "" || strings.HasPrefix(line, "--") {
				continue
			}
			q, err := sqlparse.Parse(sch, line)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("histstore: log line %d: %w", ln, err)
			}
			log = append(log, q)
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}

	var logF *os.File
	if logGen != gen {
		// The log predates the snapshot: a checkpoint committed its
		// snapshot rename but crashed before replacing the log (or the
		// log file is missing). Those statements are already folded into
		// the snapshot state — finish the checkpoint by discarding them.
		log = nil
		if logF, err = freshLog(dir, gen); err != nil {
			return nil, err
		}
		syncDir(dir)
	} else if logF, err = os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}

	mOpens.Inc()
	return &Store{dir: dir, schema: sch, d0: d0, log: log, logF: logF, gen: gen,
		cache: core.NewImpactCache(0)}, nil
}

// parseLogGen recognizes the log's generation header line.
func parseLogGen(line string) (int64, bool) {
	if !strings.HasPrefix(line, logGenPrefix) {
		return 0, false
	}
	g, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, logGenPrefix)), 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// Close releases the log file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logF == nil {
		return nil
	}
	err := s.logF.Close()
	s.logF = nil
	return err
}

// Schema returns the table schema. Schemas are immutable after Open, so
// no lock is needed.
func (s *Store) Schema() *relation.Schema { return s.schema }

// D0 returns a copy of the checkpoint state.
func (s *Store) D0() *relation.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d0.Clone()
}

// Log returns a copy of the persisted query log.
func (s *Store) Log() []query.Query {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return query.CloneLog(s.log)
}

// Append durably adds a statement to the log.
func (s *Store) Append(q query.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(q)
}

func (s *Store) appendLocked(q query.Query) error {
	if s.logF == nil {
		return fmt.Errorf("histstore: store is closed")
	}
	line := q.String(s.schema)
	// Round-trip check: the persisted text must parse back to the same
	// statement; refuse to persist anything that would not replay.
	if _, err := sqlparse.Parse(s.schema, line); err != nil {
		return fmt.Errorf("histstore: statement does not round-trip: %w", err)
	}
	if _, err := fmt.Fprintln(s.logF, line+";"); err != nil {
		return err
	}
	if err := s.logF.Sync(); err != nil {
		return err
	}
	if len(s.text) == len(s.log) {
		s.text = append(s.text, line)
	}
	s.log = append(s.log, q.Clone())
	s.extendImpactLocked()
	mAppends.Inc()
	return nil
}

// extendImpactLocked keeps the cached FullImpact closure covering the log:
// once a diagnosis has cached one, every append extends it
// incrementally (touching only prefix entries whose impact reaches the
// new statement) so the next Diagnose starts from a warm closure
// instead of paying the update — let alone the full O(n·w) recompute —
// on the diagnosis path. Quiet appends (statements nothing upstream
// feeds into) cost O(n) set-intersection checks; for a diagnose-rarely
// bulk loader even that is wasted, but it is dwarfed by Append's
// per-statement fsync, and a store that never diagnoses never
// materializes a closure to maintain in the first place.
func (s *Store) extendImpactLocked() {
	if full, ok := s.cache.Cached(s.log[:len(s.log)-1]); ok {
		s.cache.Put(s.log, core.ExtendFullImpact(full, s.log, s.schema.Width()))
	}
}

// AppendSQL parses and durably adds a statement written in SQL. The
// parse runs outside the lock (it touches only the immutable schema);
// only the durable append itself serializes with other writers.
func (s *Store) AppendSQL(sql string) (query.Query, error) {
	q, err := sqlparse.Parse(s.schema, sql)
	if err != nil {
		return nil, err
	}
	if err := s.Append(q); err != nil {
		return nil, err
	}
	return q, nil
}

// Current replays the whole log over the checkpoint and returns the
// current state Dn. The replay works on a clone, so only the snapshot
// of (d0, log) is taken under the lock.
func (s *Store) Current() (*relation.Table, error) {
	s.mu.RLock()
	d0, log := s.d0, s.log
	s.mu.RUnlock()
	return query.Replay(log, d0)
}

// View names the history a diagnosis ran over. Within a generation the
// log only grows, so (Gen, Len) identifies it exactly: two views of one
// store with equal Gen and Len are the same checkpoint state and the
// same statements.
type View struct {
	// Gen is the checkpoint generation and Len the log length.
	Gen int64
	Len int
	// SQL is the log's canonical text, SQL[i] == log[i].String(schema);
	// nil from Head. It is shared with the store: read-only.
	SQL []string
}

// Head reports the history a diagnosis started now would run over.
func (s *Store) Head() View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return View{Gen: s.gen, Len: len(s.log)}
}

// Diagnose runs QFix over the store's checkpoint state and log with the
// store's impact cache installed: the first call pays the FullImpact
// closure, repeat calls over the same log reuse it
// (Stats.ImpactCacheHits), and calls after Appends reuse the
// incrementally extended closure (Stats.ImpactCacheExtends counts
// extensions done on the diagnosis path; appends extend eagerly, so the
// usual count there is zero).
func (s *Store) Diagnose(complaints []core.Complaint, opt core.Options) (*core.Repair, error) {
	s.mu.RLock()
	h := s.historyLocked()
	s.mu.RUnlock()
	return s.diagnose(h, complaints, opt)
}

// DiagnoseView is Diagnose that also reports which history it ran over,
// with its canonical SQL: what a caller needs to render the repair
// without re-printing the statements it left alone, and to recognize a
// later request over the same history.
func (s *Store) DiagnoseView(complaints []core.Complaint, opt core.Options) (*core.Repair, View, error) {
	s.mu.RLock()
	h, text := s.historyLocked(), s.text
	s.mu.RUnlock()
	if len(text) < len(h.log) {
		s.mu.Lock()
		for _, q := range s.log[len(s.text):] {
			s.text = append(s.text, q.String(s.schema))
		}
		h, text = s.historyLocked(), s.text
		s.mu.Unlock()
	}
	rep, err := s.diagnose(h, complaints, opt)
	return rep, View{Gen: h.gen, Len: len(h.log), SQL: text}, err
}

// history is the consistent (d0, log, gen) tuple a diagnosis
// captures under the read lock and then runs over unlocked: the log is
// append-only and Checkpoint swaps the d0 pointer rather than mutating
// the table, so the tuple stays internally consistent for the whole run
// even while writers proceed. The engine never mutates its inputs
// (replay verification clones), so concurrent diagnoses may share one.
type history struct {
	d0  *relation.Table
	log []query.Query
	gen int64
}

func (s *Store) historyLocked() history {
	return history{d0: s.d0, log: s.log, gen: s.gen}
}

func (s *Store) diagnose(h history, complaints []core.Complaint, opt core.Options) (*core.Repair, error) {
	if opt.ImpactCache == nil {
		opt.ImpactCache = s.cache
	}
	mDiagnoses.Inc()
	return core.Diagnose(h.d0, h.log, complaints, opt)
}

// Checkpoint rewrites the snapshot to the current state and truncates
// the log: the paper's "D0 can be a checkpoint: a state of the database
// that we assume is correct; we cannot diagnose errors before this
// state." Call it after repairs have been validated.
//
// The rewrite is crash-safe: the new snapshot is written under a
// temporary name and renamed into place, and that rename is the commit
// point — it carries a new generation, so the not-yet-truncated log
// (stamped with the old generation) is recognized as stale and
// discarded by Open. Tuple IDs and the insert counter are preserved
// exactly (format 2), so complaints and caches keyed by TupleID remain
// valid across the checkpoint even when DELETEs removed rows.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay inline rather than via Current: the write lock is held (the
	// RWMutex is not reentrant) and the checkpoint must be computed from
	// exactly the state it will commit.
	cur, err := query.Replay(s.log, s.d0)
	if err != nil {
		return err
	}
	gen := s.gen + 1
	dirPath := filepath.Join(s.dir, "snapshot.csv")
	tmp := dirPath + ".tmp"
	if err := writeSnapshot(tmp, cur, gen); err != nil {
		return err
	}
	if err := os.Rename(tmp, dirPath); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the commit before touching the log: without this barrier
	// a crash could reorder the renames on disk — new-gen log durable,
	// new snapshot not — and Open would then discard the old log as
	// stale against the old snapshot, losing synced appends.
	syncDir(s.dir)
	// Commit point passed: the store now reads as post-checkpoint even
	// if anything below fails.
	if s.logF != nil {
		s.logF.Close()
		s.logF = nil
	}
	logF, err := freshLog(s.dir, gen)
	if err != nil {
		return err
	}
	syncDir(s.dir)
	s.d0 = cur
	s.log = nil
	s.text = nil
	s.logF = logF
	s.gen = gen
	mCheckpoints.Inc()
	return nil
}
