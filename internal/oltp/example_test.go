package oltp_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/oltp"
	"repro/internal/query"
)

// ExampleTPCC is the paper's §7.4 scenario: in a TPC-C-style ORDER log of
// NewOrder INSERTs and Delivery point-UPDATEs, one delivery was keyed to
// the wrong order. From the complaints of the affected customers, QFix
// scans the log newest-first and pinpoints that delivery.
func ExampleTPCC() {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 400, Queries: 250, Seed: 42})

	// Corrupt the last delivery update at least 20 statements from the end.
	bad := -1
	for i := len(w.Log) - 20; i >= 0 && bad < 0; i-- {
		if _, ok := w.Log[i].(*query.Update); ok {
			bad = i
		}
	}
	in, err := w.MakeInstance(bad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("log: %d statements over %d orders\n", len(w.Log), w.D0.Len())
	fmt.Printf("corrupted q%d: %s\n", bad+1, in.Dirty[bad].String(w.Schema))
	fmt.Printf("intended  q%d: %s\n", bad+1, w.Log[bad].String(w.Schema))
	fmt.Printf("complaints: %d\n", len(in.Complaints))

	rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:        core.Incremental,
		TupleSlicing:     true,
		QuerySlicing:     true,
		SingleCorruption: true, // point updates: strict candidate filter
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rep.Changed {
		fmt.Printf("repaired  q%d: %s\n", c+1, rep.Log[c].String(w.Schema))
	}
	acc, err := in.Evaluate(rep.Log)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precision=%.2f recall=%.2f f1=%.2f\n", acc.Precision, acc.Recall, acc.F1)
	// Output:
	// log: 250 statements over 400 orders
	// corrupted q223: UPDATE orders SET o_carrier_id = 6 WHERE o_id = 18 AND o_d_id = 9
	// intended  q223: UPDATE orders SET o_carrier_id = 2 WHERE o_id = 39 AND o_d_id = 10
	// complaints: 2
	// repaired  q223: UPDATE orders SET o_carrier_id = 2 WHERE o_id = 39 AND o_d_id = 10
	// precision=1.00 recall=1.00 f1=1.00
}
