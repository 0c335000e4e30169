// Distributed: shipping partition subproblems to a worker fleet.
//
// Same department-store scenario as examples/partitioned — three nightly
// price scripts, each with a wrong WHERE constant, complaints confined
// to three independent categories — but this time the three per-category
// MILPs are not solved in-process: two qfix-worker servers are spun up
// on loopback TCP, a coordinator plans the partitions locally, ships
// each one over the versioned wire protocol, and merges the returned
// repairs through the engine's replay-verification path. The final
// repair is identical to the local run; Stats.RemoteJobs records how
// much of the solving left the process.
//
// The coordinator keeps one persistent multiplexed connection per
// worker and streams each result back the moment its solve lands
// (Stats.StreamedResults) — what `qfixd -workers …` holds for every
// diagnosis it runs. Both runs produce the identical repair.
//
// In production the two goroutines are `qfix-worker -addr :7433` style
// processes on other machines and dist.Connect is given their addresses.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	qfix "repro"
	"repro/internal/dist"
)

func main() {
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

	// The true cutoffs were 200; every clerk typed 140.
	history, err := qfix.ParseLog(sch, `
		UPDATE Prices SET grocery = 90  WHERE grocery >= 140 AND grocery <= 260;
		UPDATE Prices SET apparel = 120 WHERE apparel >= 140 AND apparel <= 260;
		UPDATE Prices SET garden  = 75  WHERE garden  >= 140 AND garden  <= 260
	`)
	if err != nil {
		log.Fatal(err)
	}
	complaints := []qfix.Complaint{
		{TupleID: 2, Exists: true, Values: []float64{150, 0, 0}},
		{TupleID: 6, Exists: true, Values: []float64{0, 150, 0}},
		{TupleID: 10, Exists: true, Values: []float64{0, 0, 150}},
	}

	// Spin up two workers the way `qfix-worker` does, on loopback
	// ephemeral ports.
	var workers []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &dist.Server{}
		go srv.Serve(l)
		defer srv.Close()
		workers = append(workers, l.Addr().String())
		fmt.Printf("worker %d listening on %s\n", i+1, l.Addr())
	}

	opts := qfix.Options{
		Algorithm:    qfix.Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    3,
	}

	// diagnose is qfix.Diagnose for the in-process run and a
	// coordinator's Diagnose — which plans locally and ships every
	// partition to its workers — for the fleet run.
	run := func(name string, diagnose func(*qfix.Table, []qfix.Query, []qfix.Complaint, qfix.Options) (*qfix.Repair, error)) *qfix.Repair {
		start := time.Now()
		rep, err := diagnose(d0, history, complaints, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s resolved=%v partitions=%d remote-jobs=%d streamed=%d distance=%.0f  (%v)\n",
			name, rep.Resolved, rep.Stats.Partitions, rep.Stats.RemoteJobs,
			rep.Stats.StreamedResults, rep.Distance,
			time.Since(start).Round(time.Microsecond))
		return rep
	}

	local := run("local", qfix.Diagnose)

	coord := dist.Connect(dist.Config{}, workers...)
	defer coord.Close()
	remote := run("fleet", coord.Diagnose)

	fmt.Println("\nrepaired history (fleet):")
	for i, q := range remote.Log {
		fmt.Printf("  q%d: %s\n", i+1, q.String(sch))
	}
	if qfix.Distance(local.Log, remote.Log) == 0 {
		fmt.Println("\nthe fleet repair is identical to the local repair ✓")
	} else {
		fmt.Println("\nWARNING: distributed and local repairs differ")
	}
}
