package histstore_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/relation"
)

// ExampleStore runs repeat audits over a growing payroll history. The
// first diagnosis pays the FullImpact closure, a repeat over the same log
// reuses it, and each append extends it in place, so the audit after the
// appends still hits the cache. A checkpoint and a reopen then keep
// every tuple's identity, a deleted one's included.
func ExampleStore() {
	dir, err := os.MkdirTemp("", "histstore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

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

	appendSQL := func(stmts ...string) {
		for _, sql := range stmts {
			if _, err := st.AppendSQL(sql); err != nil {
				log.Fatal(err)
			}
		}
	}
	// The bonus cutoff should have been 87000; the operator typed 87400.
	appendSQL(
		"UPDATE Payroll SET bonus = 7500 WHERE salary >= 87400 AND salary <= 110000",
		"UPDATE Payroll SET payout = salary + bonus")

	// Tuple 3 (salary 87000) should have received the 7500 bonus.
	complaints := []core.Complaint{{TupleID: 3, Exists: true, Values: []float64{87000, 7500, 94500}}}
	audit := func(label string) {
		rep, err := st.Diagnose(complaints, core.Options{
			Algorithm: core.Incremental, TupleSlicing: true, QuerySlicing: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: resolved=%v cache hits=%d extends=%d\n",
			label, rep.Resolved, rep.Stats.ImpactCacheHits, rep.Stats.ImpactCacheExtends)
		for _, c := range rep.Changed {
			fmt.Printf("  repaired q%d: %s\n", c+1, rep.Log[c].String(sch))
		}
	}
	audit("cold")
	audit("repeat")
	appendSQL(
		"UPDATE Payroll SET salary = salary * 1.02 WHERE salary <= 60000",
		"DELETE FROM Payroll WHERE salary >= 104000",
		"UPDATE Payroll SET payout = salary + bonus")
	audit("after appends")

	// The checkpoint folds the log into the snapshot; tuple 5 is gone and
	// the insert counter does not reuse its ID.
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
	fmt.Printf("reopened: tuple IDs %v, next insert gets %d, log length %d\n",
		re.D0().IDs(), re.D0().NextID(), len(re.Log()))
	// Output:
	// cold: resolved=true cache hits=0 extends=0
	//   repaired q1: UPDATE Payroll SET bonus = 7500 WHERE salary >= 87000 AND salary <= 110000
	// repeat: resolved=true cache hits=1 extends=0
	//   repaired q1: UPDATE Payroll SET bonus = 7500 WHERE salary >= 87000 AND salary <= 110000
	// after appends: resolved=true cache hits=1 extends=0
	//   repaired q1: UPDATE Payroll SET bonus = 7500 WHERE salary >= 87000 AND salary <= 110000
	// reopened: tuple IDs [1 2 3 4], next insert gets 6, log length 0
}
