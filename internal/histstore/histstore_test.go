package histstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

func newStore(t *testing.T) (*Store, *relation.Schema) {
	t.Helper()
	sch := relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(9500, 950, 8550)
	d0.MustInsert(90000, 22500, 67500)
	d0.MustInsert(86000, 21500, 64500)
	d0.MustInsert(86500, 21625, 64875)
	s, err := Create(t.TempDir(), d0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, sch
}

func TestCreateAppendReopen(t *testing.T) {
	s, sch := newStore(t)
	dir := s.dir
	if _, err := s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendSQL("INSERT INTO Taxes VALUES (85800, 21450, 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendSQL("not sql at all"); err == nil {
		t.Error("malformed SQL accepted")
	}
	s.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Schema().String() != sch.String() {
		t.Errorf("schema mismatch: %v vs %v", re.Schema(), sch)
	}
	if re.D0().Len() != 4 {
		t.Errorf("D0 len = %d", re.D0().Len())
	}
	log := re.Log()
	if len(log) != 2 {
		t.Fatalf("log len = %d", len(log))
	}
	cur, err := re.Current()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != 5 {
		t.Errorf("current len = %d", cur.Len())
	}
	t2, _ := cur.Get(2)
	if t2.Values[1] != 27000 {
		t.Errorf("t2 owed = %v, want 27000", t2.Values[1])
	}
}

func TestAppendSurvivesReopenMidStream(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	if _, err := s.AppendSQL("UPDATE Taxes SET pay = income - owed"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen, append more, reopen again.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AppendSQL("DELETE FROM Taxes WHERE income < 5000"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(s3.Log()) != 2 {
		t.Errorf("log len after two sessions = %d", len(s3.Log()))
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	s, _ := newStore(t)
	if _, err := Create(s.dir, s.D0()); err == nil {
		t.Error("Create over existing store accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on empty dir accepted")
	}
	dir := t.TempDir()
	snap, logp := filepath.Join(dir, "snapshot.csv"), filepath.Join(dir, "log.sql")
	os.WriteFile(filepath.Join(dir, "meta.txt"), []byte("table t\nattrs a,b\n"), 0o644)
	os.WriteFile(snap, []byte("qfixsnap,2,2,1\n1,1,notanum\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("bad snapshot accepted")
	}
	// A snapshot without the magic header — rows of a foreign CSV, or an
	// empty file — is not a store: a clean error, never rows read as D0.
	for _, body := range []string{"1,2\n", ""} {
		os.WriteFile(snap, []byte(body), 0o644)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "not a qfix snapshot") {
			t.Errorf("headerless snapshot %q: err = %v, want \"not a qfix snapshot\"", body, err)
		}
	}
	os.WriteFile(snap, []byte("qfixsnap,2,2,1\n1,1,2\n"), 0o644)
	os.WriteFile(logp, []byte("-- qfixlog gen 1\nNOT SQL;\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("bad log accepted")
	}
}

// A snapshot cell holding NaN or an infinity is refused with the line it
// sits on, as the CLI refuses it in its D0; it is never opened as data.
func TestOpenRefusesNonFiniteSnapshotCell(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "meta.txt"), []byte("table t\nattrs a,b\n"), 0o644)
	for _, cell := range []string{"NaN", "Inf", "-Inf", "+inf"} {
		body := "qfixsnap,2,3,1\n1,1,2\n2," + cell + ",3\n"
		os.WriteFile(filepath.Join(dir, "snapshot.csv"), []byte(body), 0o644)
		s, err := Open(dir)
		if err == nil {
			s.Close()
			t.Errorf("snapshot cell %s: Open accepted it", cell)
			continue
		}
		if !strings.Contains(err.Error(), "snapshot line 3") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("snapshot cell %s: err = %v, want a non-finite value on snapshot line 3", cell, err)
		}
	}
}

// Nothing non-finite is ever written as a snapshot either: Create
// refuses such a D0 and leaves no store behind, and a Checkpoint whose
// replay overflows fails before its commit point, so the store still
// opens at its old generation with its log intact.
func TestNonFiniteSnapshotNeverWritten(t *testing.T) {
	sch := relation.MustSchema("t", []string{"a"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(math.NaN())
	dir := t.TempDir()
	if s, err := Create(dir, d0); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Create with a NaN cell: err = %v", err)
	} else if s != nil {
		s.Close()
	}
	for _, name := range []string{"meta.txt", "snapshot.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("refused Create left %s behind (stat err %v)", name, err)
		}
	}

	s, _ := newStore(t)
	dir = s.dir
	for i := 0; i < 2; i++ {
		if _, err := s.AppendSQL("UPDATE Taxes SET owed = owed + 1e308"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Checkpoint of an overflowed state: err = %v", err)
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("store no longer opens after the refused Checkpoint: %v", err)
	}
	defer re.Close()
	if re.gen != 1 || len(re.log) != 2 {
		t.Errorf("reopened at generation %d with %d statements, want 1 and 2", re.gen, len(re.log))
	}
}

func TestCommentsAndBlanksInLog(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("UPDATE Taxes SET pay = 1 WHERE income < 0")
	s.Close()
	// Hand-edit the log with comments and blank lines.
	f, err := os.OpenFile(filepath.Join(dir, "log.sql"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\n-- operator note\n\nUPDATE Taxes SET pay = 2 WHERE income < 0;\n")
	f.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Log()) != 2 {
		t.Errorf("log len = %d, want 2", len(re.Log()))
	}
}

func TestCheckpoint(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	cur, _ := s.Current()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(s.Log()) != 0 {
		t.Errorf("log not truncated after checkpoint: %d", len(s.Log()))
	}
	if d := relation.DiffTables(s.D0(), cur, 1e-9); len(d) != 0 {
		t.Errorf("checkpoint state differs from pre-checkpoint current: %d diffs", len(d))
	}
	// And it persists.
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Log()) != 0 || re.D0().Len() != 4 {
		t.Errorf("reopened checkpoint wrong: log=%d d0=%d", len(re.Log()), re.D0().Len())
	}
}

func TestClosedStoreRejectsAppend(t *testing.T) {
	s, _ := newStore(t)
	s.Close()
	if _, err := s.AppendSQL("DELETE FROM Taxes"); err == nil {
		t.Error("append after close accepted")
	}
}

// The capstone: capture a history, corrupt it on disk, reload, diagnose.
func TestStoreToDiagnosisPipeline(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	// The "true" history is what should have run; persist the corrupted
	// variant, as a deployment would have.
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700") // corrupted
	s.AppendSQL("INSERT INTO Taxes VALUES (85800, 21450, 0)")
	s.AppendSQL("UPDATE Taxes SET pay = income - owed")
	s.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	complaints := []core.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
		{TupleID: 4, Exists: true, Values: []float64{86500, 21625, 64875}},
	}
	rep, err := core.Diagnose(re.D0(), re.Log(), complaints, core.Options{
		Algorithm:    core.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved || len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Fatalf("pipeline diagnosis failed: resolved=%v changed=%v", rep.Resolved, rep.Changed)
	}
	repairedSQL := rep.Log[0].String(re.Schema())
	if !strings.Contains(repairedSQL, ">=") {
		t.Errorf("unexpected repaired SQL: %s", repairedSQL)
	}
}

// Regression (tuple-identity loss): a log containing DELETEs used to be
// checkpointed into an ID-less snapshot, so reopening renumbered the
// survivors 1..n and every TupleID-keyed complaint pointed at the wrong
// row. Format 2 persists IDs and the insert counter.
func TestCheckpointPreservesTupleIDsAfterDelete(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("DELETE FROM Taxes WHERE income < 10000") // removes tuple 1
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	wantIDs := []int64{2, 3, 4}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check := func(label string, st *Store) {
		t.Helper()
		d0 := st.D0()
		got := d0.IDs()
		if len(got) != len(wantIDs) {
			t.Fatalf("%s: IDs = %v, want %v", label, got, wantIDs)
		}
		for i, id := range wantIDs {
			if got[i] != id {
				t.Fatalf("%s: IDs = %v, want %v (survivors renumbered)", label, got, wantIDs)
			}
		}
		if d0.NextID() != 5 {
			t.Errorf("%s: NextID = %d, want 5 (insert counter must survive)", label, d0.NextID())
		}
		tp, ok := d0.Get(3)
		if !ok || tp.Values[1] != 86000*0.3 {
			t.Errorf("%s: tuple 3 = %+v ok=%v, want owed 25800", label, tp, ok)
		}
	}
	check("after checkpoint", s)
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after reopen", re)
	// IDs allocated post-checkpoint continue the original sequence, so
	// replay alignment (and therefore complaints) stays correct.
	if _, err := re.AppendSQL("INSERT INTO Taxes VALUES (50000, 12500, 37500)"); err != nil {
		t.Fatal(err)
	}
	cur, err := re.Current()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(5); !ok {
		t.Errorf("post-checkpoint insert got IDs %v, want it at 5", cur.IDs())
	}
}

// Regression (non-atomic Checkpoint): simulate a crash after the
// snapshot rename committed but before the log was truncated — the old
// log (stamped with the previous generation) must be recognized as
// stale and discarded, not replayed on top of the new snapshot, and the
// store must open cleanly.
func TestCheckpointCrashBeforeLogTruncateRecovers(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	cur, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	// The crash point: new snapshot in place (gen+1), old log untouched.
	if err := writeSnapshot(filepath.Join(dir, "snapshot.csv"), cur, s.gen+1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("store not openable after simulated crash: %v", err)
	}
	defer re.Close()
	if n := len(re.Log()); n != 0 {
		t.Fatalf("stale log replayed: %d statements survive", n)
	}
	if d := relation.DiffTables(re.D0(), cur, 1e-9); len(d) != 0 {
		t.Fatalf("recovered D0 differs from checkpoint state: %d diffs", len(d))
	}
	// Recovery must complete the checkpoint: the rewritten log carries
	// the new generation, so appends and another reopen behave normally.
	if _, err := re.AppendSQL("UPDATE Taxes SET pay = income - owed"); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if n := len(again.Log()); n != 1 {
		t.Errorf("log after recovery+append = %d statements, want 1", n)
	}
}

// A crash before the snapshot rename must leave the store fully
// pre-checkpoint: the temp file is ignored by Open.
func TestCheckpointCrashBeforeSnapshotRenameRollsBack(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	cur, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(filepath.Join(dir, "snapshot.csv.tmp"), cur, s.gen+1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := len(re.Log()); n != 1 {
		t.Errorf("pre-commit crash lost the log: %d statements, want 1", n)
	}
	recovered, err := re.Current()
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.DiffTables(recovered, cur, 1e-9); len(d) != 0 {
		t.Errorf("replayed state differs: %d diffs", len(d))
	}
}

// Store.Diagnose wires the impact cache: repeat diagnoses hit it, and
// appends extend the closure eagerly so post-append diagnoses still get
// an exact hit.
func TestStoreDiagnoseUsesImpactCache(t *testing.T) {
	s, _ := newStore(t)
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	s.AppendSQL("INSERT INTO Taxes VALUES (85800, 21450, 0)")
	s.AppendSQL("UPDATE Taxes SET pay = income - owed")
	complaints := []core.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
	}
	opts := core.Options{Algorithm: core.Incremental, TupleSlicing: true,
		QuerySlicing: true, TimeLimit: 30 * time.Second}

	first, err := s.Diagnose(complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Resolved || first.Stats.ImpactCacheHits != 0 {
		t.Fatalf("first diagnosis: resolved=%v hits=%d", first.Resolved, first.Stats.ImpactCacheHits)
	}
	if _, ok := s.cache.Cached(s.log); !ok {
		t.Fatal("the diagnosis did not cache its closure in the store")
	}

	second, err := s.Diagnose(complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ImpactCacheHits != 1 || second.Stats.ImpactCacheExtends != 0 {
		t.Errorf("repeat diagnosis: hits=%d extends=%d, want exact hit",
			second.Stats.ImpactCacheHits, second.Stats.ImpactCacheExtends)
	}

	// Appends extend the closure eagerly: the next diagnosis gets an
	// exact hit, not an on-path extension, and the extended closure is
	// exactly the fresh one.
	s.AppendSQL("UPDATE Taxes SET pay = pay - 100 WHERE income >= 90000")
	extended, ok := s.cache.Cached(s.log)
	if !ok {
		t.Fatalf("no eager extension covers the %d queries", len(s.log))
	}
	fresh := core.FullImpact(s.log, s.schema.Width())
	for i := range fresh {
		if !extended[i].ContainsAll(fresh[i]) || !fresh[i].ContainsAll(extended[i]) {
			t.Fatalf("eagerly extended closure wrong at %d: %v want %v",
				i, extended[i].Sorted(), fresh[i].Sorted())
		}
	}
	third, err := s.Diagnose(complaints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.ImpactCacheHits != 1 || third.Stats.ImpactCacheExtends != 0 {
		t.Errorf("post-append diagnosis: hits=%d extends=%d, want exact hit from eager extension",
			third.Stats.ImpactCacheHits, third.Stats.ImpactCacheExtends)
	}
	if !third.Resolved {
		t.Error("post-append diagnosis unresolved")
	}

	// Checkpoint resets the log: no closure of the old one is extended
	// onto the new one.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.AppendSQL("UPDATE Taxes SET pay = pay - 100 WHERE income >= 90000")
	if _, ok := s.cache.Cached(s.log); ok {
		t.Error("an append after the checkpoint extended a closure of the old log")
	}
}

// Crash recovery must not depend on the contents of the stale log it
// discards: a torn final append (crash between write and sync) followed
// by a crash mid-checkpoint leaves a gen-mismatched log with a
// malformed last line, and the store must still open.
func TestCheckpointCrashRecoversDespiteTornStaleLog(t *testing.T) {
	s, _ := newStore(t)
	dir := s.dir
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	cur, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Tear the last log line, then commit the new snapshot as an
	// interrupted checkpoint would.
	f, err := os.OpenFile(filepath.Join(dir, "log.sql"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("UPDATE Taxes SET pay = inco") // torn mid-statement
	f.Close()
	if err := writeSnapshot(filepath.Join(dir, "snapshot.csv"), cur, 2); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("store not openable with a torn stale log: %v", err)
	}
	defer re.Close()
	if n := len(re.Log()); n != 0 {
		t.Fatalf("stale log contents survived: %d statements", n)
	}
	if d := relation.DiffTables(re.D0(), cur, 1e-9); len(d) != 0 {
		t.Errorf("recovered D0 differs from checkpoint state: %d diffs", len(d))
	}
}

// One store, one goroutine appending, one diagnosing — the resident
// service's steady state. Run with -race this pins the Store's
// concurrency contract: a diagnosis snapshots a consistent history
// prefix and keeps working while appends land, and the eagerly
// extended impact closure is only adopted for the history it was
// computed over.
func TestConcurrentAppendAndDiagnose(t *testing.T) {
	s, _ := newStore(t)
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700") // corrupted
	s.AppendSQL("INSERT INTO Taxes VALUES (85800, 21450, 0)")
	complaints := []core.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
		{TupleID: 4, Exists: true, Values: []float64{86500, 21625, 64875}},
	}
	opt := core.Options{
		Algorithm:    core.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	}

	const rounds = 8
	done := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := s.AppendSQL("UPDATE Taxes SET pay = income - owed"); err != nil {
				done <- err
				return
			}
			if _, err := s.Current(); err != nil {
				done <- err
				return
			}
			s.D0()
			s.Log()
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			rep, err := s.Diagnose(complaints, opt)
			if err != nil {
				done <- err
				return
			}
			// The corrupted UPDATE is statement 0 in every snapshot the
			// diagnosis can capture, so the verdict is stable no matter
			// how many benign appends interleave.
			if !rep.Resolved || len(rep.Changed) != 1 || rep.Changed[0] != 0 {
				done <- fmt.Errorf("round %d: resolved=%v changed=%v", i, rep.Resolved, rep.Changed)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// The store's state is still coherent after the interleaving.
	if got := len(s.Log()); got != 2+rounds {
		t.Errorf("log len = %d, want %d", got, 2+rounds)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Log()); got != 0 {
		t.Errorf("log len after checkpoint = %d", got)
	}
}

// checkView asserts a DiagnoseView of s reports exactly want, rendered
// as Query.String renders it.
func checkView(t *testing.T, s *Store, want []query.Query) View {
	t.Helper()
	_, v, err := s.DiagnoseView(nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len != len(want) || len(v.SQL) != len(want) {
		t.Fatalf("view has Len %d and %d texts, want %d", v.Len, len(v.SQL), len(want))
	}
	for i, q := range want {
		if v.SQL[i] != q.String(s.Schema()) {
			t.Fatalf("text %d = %q, want %q", i, v.SQL[i], q.String(s.Schema()))
		}
	}
	if h := s.Head(); h.Gen != v.Gen || h.Len != v.Len {
		t.Fatalf("Head = %+v on a quiet store, the view was %+v", h, v)
	}
	return v
}

// The text a store hands out with a diagnosis is Query.String of its
// log, however the statements got there: appended in this process (the
// line Append wrote), parsed back by Open, typed into log.sql by hand
// in another spelling, or left after a Checkpoint.
func TestStoreTextMatchesString(t *testing.T) {
	for name, w := range map[string]*workload.Workload{
		"tpcc": oltp.TPCC(oltp.TPCCConfig{Orders: 60, Queries: 80, Seed: 3}),
		"tatp": oltp.TATP(oltp.TATPConfig{Subscribers: 60, Queries: 80, Seed: 3}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, w.D0)
			if err != nil {
				t.Fatal(err)
			}
			half := len(w.Log) / 2
			for _, q := range w.Log[:half] {
				if err := s.Append(q); err != nil {
					t.Fatal(err)
				}
			}
			v := checkView(t, s, w.Log[:half])
			// Statements appended after the text exists extend it; a view
			// taken earlier keeps naming the shorter log.
			for _, q := range w.Log[half:] {
				if err := s.Append(q); err != nil {
					t.Fatal(err)
				}
			}
			checkView(t, s, w.Log)
			if len(v.SQL) != half {
				t.Fatalf("an earlier view grew to %d texts", len(v.SQL))
			}
			s.Close()

			// A statement spelled differently on disk is stored as parsed.
			f, err := os.OpenFile(filepath.Join(dir, "log.sql"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			canon := w.Log[0].String(w.Schema)
			edited := "  " + strings.ReplaceAll(strings.ToLower(canon), " ", "   ")
			if _, err := f.WriteString(edited + ";\n"); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if s, err = Open(dir); err != nil {
				t.Fatalf("reopening with %q appended: %v", edited, err)
			}
			defer s.Close()
			all := append(query.CloneLog(w.Log), w.Log[0])
			before := checkView(t, s, all)

			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if h := s.Head(); h.Gen != before.Gen+1 || h.Len != 0 {
				t.Fatalf("Head after Checkpoint = %+v, want generation %d and no log", h, before.Gen+1)
			}
			if err := s.Append(w.Log[1]); err != nil {
				t.Fatal(err)
			}
			checkView(t, s, w.Log[1:2])
		})
	}
}

// Views taken while appends land: each one is a prefix of the appended
// sequence, exactly as long as it says, rendered canonically.
func TestStoreTextUnderConcurrentAppends(t *testing.T) {
	w := oltp.TATP(oltp.TATPConfig{Subscribers: 40, Queries: 120, Seed: 5})
	s, err := Create(t.TempDir(), w.D0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(w.Log[0]); err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	go func() {
		for _, q := range w.Log[1:] {
			if err := s.Append(q); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	for done := false; !done; {
		select {
		case err := <-appended:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		_, v, err := s.DiagnoseView(nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len != len(v.SQL) || v.Len < 1 || v.Len > len(w.Log) {
			t.Fatalf("view has Len %d and %d texts", v.Len, len(v.SQL))
		}
		for i, text := range v.SQL {
			if text != w.Log[i].String(w.Schema) {
				t.Fatalf("text %d of %d = %q, want %q", i, v.Len, text, w.Log[i].String(w.Schema))
			}
		}
	}
	checkView(t, s, w.Log)
}

// TestStoreRace runs every Store method at once under -race: appends,
// checkpoints and diagnoses with and without a view, each on its own
// goroutine, while the readers (D0, Log, Current, Head) loop until they
// are done; then diagnoses beside one appender, so a closure a
// diagnosis adopts meets appends extending it; then a Close that lands
// while appends still arrive. It makes
// concurrent accesses of every field mu guards; what each call returns
// is not its business (a checkpoint may leave the complaints
// unresolvable, an append after Close fails).
func TestStoreRace(t *testing.T) {
	s, _ := newStore(t)
	s.AppendSQL("UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700")
	complaints := []core.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
		{TupleID: 4, Exists: true, Values: []float64{86500, 21625, 64875}},
	}
	opt := core.Options{Algorithm: core.Incremental, TupleSlicing: true, QuerySlicing: true, TimeLimit: 30 * time.Second}
	appendOne := func() { s.AppendSQL("UPDATE Taxes SET pay = income - owed") }
	diagnose := func() { s.Diagnose(complaints, opt) }
	diagnoseView := func() { s.DiagnoseView(complaints, opt) }

	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){func() { s.D0() }, func() { s.Log() }, func() { s.Current() }, func() { s.Head() }} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					read()
					runtime.Gosched()
				}
			}
		}()
	}
	hammer(16, appendOne, func() { s.Checkpoint() }, diagnose, diagnoseView)
	hammer(8, diagnose, diagnoseView, appendOne)
	close(done)
	readers.Wait()
	hammer(8, appendOne, func() { s.Close() })
}

// hammer runs each op n times on a goroutine of its own, all starting
// at once and yielding between runs so they interleave, and returns
// when every one is done.
func hammer(n int, ops ...func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range n {
				op()
				runtime.Gosched()
			}
		}()
	}
	close(start)
	wg.Wait()
}
