package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// PartitionClusters builds a workload whose complaint set decomposes
// into `clusters` independent components: each cluster owns one
// attribute, its rows hold a sentinel on every other attribute, and its
// queries read and write only that attribute. Corrupting one query per
// cluster yields complaints confined to the cluster, so the partition
// planner finds exactly `clusters` connected components. Exported for
// the partition, warm-start and dist end-to-end tests and for the
// fleet_partitioned workload of benchmark/.
func PartitionClusters(clusters, rowsPer, queriesPer int, seed int64) (*workload.Workload, []int, error) {
	const vd = 200.0
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]string, clusters)
	for k := range attrs {
		attrs[k] = fmt.Sprintf("a%d", k)
	}
	sch, err := relation.NewSchema("clusters", attrs, "")
	if err != nil {
		return nil, nil, err
	}
	d0 := relation.NewTable(sch)
	for k := 0; k < clusters; k++ {
		for i := 0; i < rowsPer; i++ {
			row := make([]float64, clusters)
			for j := range row {
				row[j] = -1000 // sentinel outside every predicate window
			}
			row[k] = float64(i * 10)
			d0.MustInsert(row...)
		}
	}
	domain := float64((rowsPer - 1) * 10)
	var log []query.Query
	var corruptIdx []int
	for k := 0; k < clusters; k++ {
		victim := rng.Intn(queriesPer)
		for q := 0; q < queriesPer; q++ {
			if q == victim {
				corruptIdx = append(corruptIdx, len(log))
			}
			lo := float64(rng.Intn(int(domain)))
			log = append(log, query.NewUpdate(
				[]query.SetClause{{Attr: k, Expr: query.ConstExpr(float64(rng.Intn(int(vd))))}},
				query.NewAnd(
					query.AttrPred(k, query.GE, lo),
					query.AttrPred(k, query.LE, lo+20))))
		}
	}
	// Domain-aware corruption: slide the predicate window and replace
	// the SET constant, keeping values inside the cluster's row domain
	// so the corrupted query stays confined to its cluster.
	corrupt := func(rng *rand.Rand, q query.Query, p []float64) {
		if _, ok := q.(*query.Update); !ok || len(p) < 3 {
			return
		}
		p[0] = float64(rng.Intn(int(vd)))
		width := p[2] - p[1]
		p[1] = float64(rng.Intn(int(domain)))
		p[2] = p[1] + width
	}
	w := workload.NewCustom(workload.Config{Vd: vd, Seed: seed}, sch, d0, log, corrupt)
	return w, corruptIdx, nil
}
