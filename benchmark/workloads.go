package main

import "math/rand"

// Workload names, in BENCHMARK.json order.
const (
	solverDeep       = "solver_deep"
	cliOLTPCold      = "cli_oltp_cold"
	daemonMixed      = "daemon_mixed"
	fleetPartitioned = "fleet_partitioned"
)

// workloadDef fixes a workload's shape. A run is fixed work: whole
// passes over the seed's instance list, --seconds/passSeconds of them.
// Sizing by elapsed time instead would sample instances unevenly and
// made every timing metric spread 13-29% run to run (see README).
type workloadDef struct {
	name string
	// passSeconds is the duration of one pass on the 2-core reference
	// box; it converts --seconds into a pass count and nothing else.
	passSeconds float64
	classes     []classDef
}

// classDef describes one size class of a workload's pool: how many
// slots the run draws from it and how -write-manifest finds candidates.
// Every slot holds a few alternatives of near-equal cost, so the seed
// changes the inputs without changing how much work a run is.
type classDef struct {
	name  string
	slots int
	// loMS..hiMS is the in-process diagnosis cost a candidate must have
	// when the manifest is written; well under a tenth of the 60 s solve
	// limit, so no instance can end on a deadline-dependent repair.
	loMS, hiMS float64
	gen        func(rng *rand.Rand, i int) instSpec
}

// slotAlternatives is how many near-equal instances each slot offers
// the seed; slotTolerance bounds their relative cost spread.
const (
	slotAlternatives = 3
	slotTolerance    = 0.05
)

var workloads = []workloadDef{
	{name: solverDeep, passSeconds: 1.5, classes: []classDef{{
		name: "synthetic", slots: 25, loMS: 6, hiMS: 260,
		gen: func(rng *rand.Rand, i int) instSpec {
			s := instSpec{Kind: "synthetic", Rows: 100 + rng.Intn(101), Queries: 30 + rng.Intn(31),
				Range: float64(8 + rng.Intn(13)), Age: 1 + rng.Intn(30), GenSeed: int64(1000 + i)}
			if s.Age > s.Queries {
				s.Age = s.Queries
			}
			return s
		}}}},
	{name: cliOLTPCold, passSeconds: 2.55, classes: []classDef{
		{name: "tpcc", slots: 13, loMS: 30, hiMS: 120,
			gen: func(rng *rand.Rand, i int) instSpec {
				return instSpec{Kind: "tpcc", Rows: 2000 + rng.Intn(2001), Queries: 1000 + rng.Intn(501),
					Age: 1 + rng.Intn(3), GenSeed: int64(2000 + i)}
			}},
		{name: "tatp", slots: 12, loMS: 30, hiMS: 120,
			gen: func(rng *rand.Rand, i int) instSpec {
				return instSpec{Kind: "tatp", Rows: 2000 + rng.Intn(2001), Queries: 1000 + rng.Intn(301),
					Age: 1 + rng.Intn(6), GenSeed: int64(3000 + i)}
			}},
	}},
	{name: daemonMixed, passSeconds: 0.27, classes: []classDef{
		{name: "small", slots: 24, loMS: 0.1, hiMS: 3,
			gen: func(rng *rand.Rand, i int) instSpec {
				return instSpec{Kind: "tatp", Rows: 20 + rng.Intn(41), Queries: 20 + rng.Intn(41),
					Age: 1, GenSeed: int64(4000 + i)}
			}},
		{name: "long", slots: 8, loMS: 4, hiMS: 40,
			gen: func(rng *rand.Rand, i int) instSpec {
				return instSpec{Kind: "tatp", Rows: 100 + rng.Intn(201), Queries: 900 + rng.Intn(201),
					Age: 1, GenSeed: int64(5000 + i)}
			}},
	}},
	{name: fleetPartitioned, passSeconds: 2.65, classes: []classDef{{
		name: "clusters", slots: 25, loMS: 30, hiMS: 220,
		gen: func(rng *rand.Rand, i int) instSpec {
			return instSpec{Kind: "clusters", Clusters: 16 + rng.Intn(17), Rows: 4 + rng.Intn(3),
				Queries: 2 + rng.Intn(2), GenSeed: int64(6000 + i)}
		}}}},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
