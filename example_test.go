package qfix_test

import (
	"fmt"
	"log"
	"math/rand"

	qfix "repro"
)

// ExampleDiagnose runs the paper's Figure 2 scenario: a tax-bracket
// update with transposed digits is traced back from two complaints and
// repaired.
func ExampleDiagnose() {
	sch, err := qfix.NewSchema("Taxes", []string{"income", "owed", "pay"}, "")
	if err != nil {
		log.Fatal(err)
	}
	d0 := qfix.NewTable(sch)
	d0.MustInsert(9500, 950, 8550)
	d0.MustInsert(90000, 22500, 67500)
	d0.MustInsert(86000, 21500, 64500)
	d0.MustInsert(86500, 21625, 64875)

	history, err := qfix.ParseLog(sch, `
		UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;
		INSERT INTO Taxes VALUES (85800, 21450, 0);
		UPDATE Taxes SET pay = income - owed`)
	if err != nil {
		log.Fatal(err)
	}

	complaints := []qfix.Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
		{TupleID: 4, Exists: true, Values: []float64{86500, 21625, 64875}},
	}
	rep, err := qfix.Diagnose(d0, history, complaints, qfix.Options{
		Algorithm:    qfix.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resolved:", rep.Resolved)
	fmt.Println("repaired:", rep.Log[0].String(sch))
	// Output:
	// resolved: true
	// repaired: UPDATE Taxes SET owed = 0.3 * income WHERE income >= 86500.5
}

// ExampleComplaintsFromDiff derives a complete complaint set by diffing
// the corrupted state against the intended one.
func ExampleComplaintsFromDiff() {
	sch, _ := qfix.NewSchema("T", []string{"a", "b"}, "")
	d0 := qfix.NewTable(sch)
	d0.MustInsert(1, 10)
	d0.MustInsert(2, 20)

	dirty, _ := qfix.ParseLog(sch, "UPDATE T SET b = 0 WHERE a >= 1")
	truth, _ := qfix.ParseLog(sch, "UPDATE T SET b = 0 WHERE a >= 2")
	dirtyFinal, _ := qfix.Replay(dirty, d0)
	truthFinal, _ := qfix.Replay(truth, d0)

	for _, c := range qfix.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9) {
		fmt.Printf("tuple %d should be %v\n", c.TupleID, c.Values)
	}
	// Output:
	// tuple 1 should be [1 10]
}

// ExampleDiagnose_incompleteComplaints is the paper's Example 2/3 at a
// realistic scale: a bracket update with transposed digits corrupts a
// band of 400 taxpayer records, later valid queries propagate the error,
// and only three customers complain. The repair from those three,
// replayed, also corrects every record nobody reported.
func ExampleDiagnose_incompleteComplaints() {
	sch, err := qfix.NewSchema("Taxes", []string{"income", "owed", "pay", "deductions"}, "")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2016))
	d0 := qfix.NewTable(sch)
	for i := 0; i < 400; i++ {
		income := float64(20000 + rng.Intn(100001))
		owed := income * 0.25
		d0.MustInsert(income, owed, income-owed, float64(rng.Intn(5000)))
	}

	// The intended cutoff is 87,500; the clerk typed 85,700.
	truthLog, err := qfix.ParseLog(sch, `
		UPDATE Taxes SET owed = income * 0.3 WHERE income >= 87500;
		UPDATE Taxes SET deductions = deductions + 500 WHERE income <= 40000;
		UPDATE Taxes SET pay = income - owed - deductions`)
	if err != nil {
		log.Fatal(err)
	}
	dirtyLog, err := qfix.ParseLog(sch, `
		UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;
		UPDATE Taxes SET deductions = deductions + 500 WHERE income <= 40000;
		UPDATE Taxes SET pay = income - owed - deductions`)
	if err != nil {
		log.Fatal(err)
	}
	dirtyFinal, _ := qfix.Replay(dirtyLog, d0)
	truthFinal, _ := qfix.Replay(truthLog, d0)
	allErrors := qfix.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)
	reported := []qfix.Complaint{allErrors[0], allErrors[len(allErrors)/2], allErrors[len(allErrors)-1]}
	fmt.Printf("corrupted %d of %d records; %d reported\n", len(allErrors), dirtyFinal.Len(), len(reported))

	rep, err := qfix.Diagnose(d0, dirtyLog, reported, qfix.Options{
		Algorithm:    qfix.Incremental,
		TupleSlicing: true, // tolerant of the incomplete complaint set (§6)
		QuerySlicing: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resolved:", rep.Resolved)
	for _, c := range rep.Changed {
		fmt.Printf("repaired q%d: %s\n", c+1, rep.Log[c].String(sch))
	}

	repairedFinal, _ := qfix.Replay(rep.Log, d0)
	corrected := qfix.DiffTables(dirtyFinal, repairedFinal, 1e-9)
	fmt.Printf("replay corrected %d records, %d of them unreported; %d still wrong\n",
		len(corrected), len(corrected)-len(reported), len(qfix.DiffTables(repairedFinal, truthFinal, 1e-6)))
	// Output:
	// corrupted 6 of 400 records; 3 reported
	// resolved: true
	// repaired q1: UPDATE Taxes SET owed = 0.3 * income WHERE income >= 87439.5
	// replay corrected 6 records, 3 of them unreported; 0 still wrong
}

// ExampleDiagnose_partitioned diagnoses three independent errors, one
// per product category, first as one joint MILP and then with the
// partition planner, which finds the three complaint clusters from the
// log's full-impact sets and solves each on its own. Both give the same
// repair.
func ExampleDiagnose_partitioned() {
	// One price column per category; every tuple belongs to one category.
	sch, err := qfix.NewSchema("Prices", []string{"grocery", "apparel", "garden"}, "")
	if err != nil {
		log.Fatal(err)
	}
	d0 := qfix.NewTable(sch)
	for cat := 0; cat < 3; cat++ {
		for i := 0; i < 4; i++ {
			row := []float64{0, 0, 0}
			row[cat] = float64(100 + i*50) // 100, 150, 200, 250
			d0.MustInsert(row...)
		}
	}
	// Every script's cutoff should have been 200; each clerk typed 140.
	history, err := qfix.ParseLog(sch, `
		UPDATE Prices SET grocery = 90  WHERE grocery >= 140 AND grocery <= 260;
		UPDATE Prices SET apparel = 120 WHERE apparel >= 140 AND apparel <= 260;
		UPDATE Prices SET garden  = 75  WHERE garden  >= 140 AND garden  <= 260`)
	if err != nil {
		log.Fatal(err)
	}
	// Each category's 150-priced item should have kept its price.
	complaints := []qfix.Complaint{
		{TupleID: 2, Exists: true, Values: []float64{150, 0, 0}},
		{TupleID: 6, Exists: true, Values: []float64{0, 150, 0}},
		{TupleID: 10, Exists: true, Values: []float64{0, 0, 150}},
	}

	var repairs [2]string
	for i, partition := range []int{0, 3} {
		rep, err := qfix.Diagnose(d0, history, complaints, qfix.Options{
			Algorithm:    qfix.Basic,
			TupleSlicing: true,
			QuerySlicing: true,
			Partition:    partition,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partition=%d: resolved=%v partitions=%d changed=%v distance=%.0f\n",
			partition, rep.Resolved, rep.Stats.Partitions, rep.Changed, rep.Distance)
		for _, q := range rep.Log {
			repairs[i] += q.String(sch) + "\n"
		}
	}
	fmt.Println("same repair:", repairs[0] == repairs[1])
	fmt.Print(repairs[1])
	// Output:
	// partition=0: resolved=true partitions=0 changed=[0 1 2] distance=32
	// partition=3: resolved=true partitions=3 changed=[0 1 2] distance=32
	// same repair: true
	// UPDATE Prices SET grocery = 90 WHERE grocery >= 150.5 AND grocery <= 260
	// UPDATE Prices SET apparel = 120 WHERE apparel >= 150.5 AND apparel <= 260
	// UPDATE Prices SET garden = 75 WHERE garden >= 150.5 AND garden <= 260
}
