// Histaudit: repeat diagnoses over a growing history store.
//
// A payroll service checkpoints its table into a histstore directory
// and appends every statement it executes. Audits run continuously:
// after each batch of statements, the auditor re-checks the flagged
// rows and diagnoses again. The store's impact cache makes that cheap —
// the first diagnosis pays the FullImpact closure, every append extends
// it incrementally, and every re-diagnosis reuses it instead of
// recomputing the O(n·w) closure from scratch.
//
// The run also exercises the durability half of the store: a DELETE in
// the history, then a checkpoint, then a reopen — tuple identities
// survive all three, so the complaint that named tuple 4 still names
// the same row afterwards.
//
// Run with: go run ./examples/histaudit
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/relation"
)

func main() {
	dir, err := os.MkdirTemp("", "histaudit")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Checkpoint state: five employees (salary, bonus, payout).
	sch, err := relation.NewSchema("Payroll", []string{"salary", "bonus", "payout"}, "")
	if err != nil {
		log.Fatal(err)
	}
	d0 := relation.NewTable(sch)
	for _, row := range [][]float64{
		{52000, 0, 52000},
		{61000, 2000, 63000},
		{87000, 5000, 92000},
		{87500, 5000, 92500},
		{104000, 8000, 112000},
	} {
		d0.MustInsert(row...)
	}
	st, err := histstore.Create(dir, d0)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// The nightly batch ran with a typo: the bonus cutoff should have
	// been 87000, the operator typed 87400 — one employee missed out.
	for _, sql := range []string{
		"UPDATE Payroll SET bonus = 7500 WHERE salary >= 87400 AND salary <= 110000",
		"UPDATE Payroll SET payout = salary + bonus",
	} {
		if _, err := st.AppendSQL(sql); err != nil {
			log.Fatal(err)
		}
	}

	opts := core.Options{Algorithm: core.Incremental, TupleSlicing: true, QuerySlicing: true}
	complaints := []core.Complaint{
		// Tuple 3 (salary 87000) should have received the 7500 bonus.
		{TupleID: 3, Exists: true, Values: []float64{87000, 7500, 94500}},
	}
	diagnose := func(label string, cs []core.Complaint) {
		start := time.Now()
		rep, err := st.Diagnose(cs, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %7v  resolved=%-5v cache hits=%d extends=%d\n",
			label, time.Since(start).Round(time.Microsecond), rep.Resolved,
			rep.Stats.ImpactCacheHits, rep.Stats.ImpactCacheExtends)
		for _, i := range rep.Changed {
			fmt.Printf("    repaired: %s;\n", rep.Log[i].String(sch))
		}
	}

	fmt.Println("== audit 1: cold (pays the FullImpact closure)")
	diagnose("diagnose", complaints)
	fmt.Println("== audit 2: same log (exact cache hit)")
	diagnose("re-diagnose", complaints)

	// More statements arrive; each append extends the cached closure
	// incrementally instead of invalidating it.
	fmt.Println("== appends: closure extended eagerly on each Append")
	for _, sql := range []string{
		"UPDATE Payroll SET salary = salary * 1.02 WHERE salary <= 60000",
		"DELETE FROM Payroll WHERE salary >= 104000",
		"UPDATE Payroll SET payout = salary + bonus",
	} {
		if _, err := st.AppendSQL(sql); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("== audit 3: grown log (warm closure, no O(n·w) recompute)")
	diagnose("diagnose+appends", []core.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{87000, 7500, 94500}},
	})

	// Checkpoint folds the log into the snapshot. Tuple IDs and the
	// insert counter persist (snapshot format 2), so identities survive
	// the DELETE above: tuple 5 is gone, tuples 1..4 keep their IDs.
	if err := st.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	re, err := histstore.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	fmt.Println("== after checkpoint + reopen: identities preserved")
	fmt.Printf("tuple IDs: %v (next insert gets %d)\n", re.D0().IDs(), re.D0().NextID())
}
