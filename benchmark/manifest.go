package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

//go:embed manifest.json
var manifestJSON []byte

// manifest is the committed instance pool: per workload an ordered list
// of slots (cheapest first within a class), each with alternatives.
type manifest struct {
	Note      string            `json:"note"`
	GoVersion string            `json:"go_version"`
	Workloads map[string][]slot `json:"workloads"`
}

type slot struct {
	Class string     `json:"class"`
	Alts  []instSpec `json:"alts"`
}

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("benchmark/manifest.json: %w", err)
	}
	return &m, nil
}

// pick draws the run's instance list: one alternative per slot, chosen
// by the seed. Alternatives of a slot cost about the same time but not
// the same memory, so the draw is repeated until the list's total
// allocation, by the manifest's figures, is within drawTolerance of
// what the pool allocates on average: another seed is other inputs but
// the same amount of work. tiny keeps the cheapest slots of each class
// only (the smoke size).
func (m *manifest) pick(def *workloadDef, rng *rand.Rand, tiny bool) ([]instSpec, error) {
	slots := m.Workloads[def.name]
	want := 0
	for _, c := range def.classes {
		want += c.slots
	}
	if len(slots) != want {
		return nil, fmt.Errorf("manifest has %d slots for %s, the workload defines %d; run -write-manifest",
			len(slots), def.name, want)
	}
	var mean float64
	for _, s := range slots {
		if len(s.Alts) == 0 {
			return nil, fmt.Errorf("manifest: empty slot in %s", def.name)
		}
		for _, alt := range s.Alts {
			mean += alt.AllocKB / float64(len(s.Alts))
		}
	}
	const drawTolerance, maxDraws = 0.005, 1000
	var out []instSpec
	for draw := 0; draw < maxDraws; draw++ {
		out = out[:0]
		var total float64
		perClass := map[string]int{}
		for _, s := range slots {
			// Draw for every slot, kept or not, so a slot's instance does
			// not depend on the size of the run.
			alt := s.Alts[rng.Intn(len(s.Alts))]
			total += alt.AllocKB
			perClass[s.Class]++
			if tiny && perClass[s.Class] > 2 {
				continue
			}
			out = append(out, alt)
		}
		if math.Abs(total-mean) <= drawTolerance*mean {
			break
		}
	}
	return out, nil
}

// reference diagnoses an instance the way the manifest defines
// "right": in process, CLI-default options, plus the workload's
// partitioning. limit bounds the whole diagnosis (0 = none).
func reference(wl string, in *instance, limit time.Duration) (*core.Repair, error) {
	opt := diagOptions(wl)
	opt.TotalTimeLimit = limit
	return core.Diagnose(in.in.W.D0, in.in.Dirty, in.in.Complaints, opt)
}

// candidate is a pool candidate that passed vetting, kept built so its
// cost can be measured again.
type candidate struct {
	spec instSpec
	in   *instance
	warm *core.ImpactCache // daemon_mixed only
}

// vet runs the reference on a candidate and fills in its expectations.
// ok=false drops the candidate: no complaints, unresolved, not proven
// optimal, or far outside the class's cost window.
func vet(wl string, c classDef, spec instSpec) (candidate, bool, error) {
	in, err := spec.build()
	if err != nil {
		return candidate{}, false, err
	}
	if len(in.in.Complaints) == 0 {
		return candidate{}, false, nil
	}
	t0 := time.Now()
	rep, err := reference(wl, in, time.Duration(4*c.hiMS*float64(time.Millisecond)))
	cost := ms(time.Since(t0))
	if err != nil {
		return candidate{}, false, err
	}
	if !rep.Resolved || rep.Stats.LastStatus != "optimal" || cost > 1.5*c.hiMS {
		return candidate{}, false, nil
	}
	acc, err := in.in.Evaluate(rep.Log)
	if err != nil {
		return candidate{}, false, err
	}
	spec.Digest = digestOf(renderLog(in.schema, rep.Log)).String()
	spec.F1 = acc.F1
	spec.Nodes, spec.LPIters = rep.Stats.Nodes, rep.Stats.LPIters
	spec.Batches, spec.Partitions = rep.Stats.BatchesTried, rep.Stats.Partitions
	cand := candidate{spec: spec, in: in}
	if wl == daemonMixed {
		cand.warm = core.NewImpactCache(0)
	}
	return cand, true, nil
}

// measure fills in CostMS and AllocKB and returns the candidates inside
// the class's cost window. Costs are only ever compared with each other
// (to put near-equal instances in one slot), and machine speed drifts by
// tens of percent over minutes, so they are measured in rounds: every
// round diagnoses every candidate once and is scaled to the mean round,
// and a candidate's cost is its median over the rounds. Allocation hardly
// varies; it is the median over the same rounds.
func measure(ctx context.Context, wl string, c classDef, cands []candidate) ([]instSpec, error) {
	// Cost is measured on the path the workload takes where that path
	// adds work in proportion to the instance: through a loopback fleet
	// (job size grows with the cluster count), and with the impact cache
	// warm for the daemon's tenants.
	diagnose := func(cand candidate) error {
		opt := diagOptions(wl)
		opt.ImpactCache = cand.warm
		_, err := core.Diagnose(cand.in.in.W.D0, cand.in.in.Dirty, cand.in.in.Complaints, opt)
		return err
	}
	if wl == fleetPartitioned {
		fleet := &fleetDriver{}
		if err := fleet.start(); err != nil {
			return nil, err
		}
		defer fleet.teardown()
		diagnose = func(cand candidate) error {
			_, err := fleet.diagnose(cand.in)
			return err
		}
	}
	const rounds = 7
	times := make([][]float64, len(cands))
	allocs := make([][]float64, len(cands))
	totals := make([]float64, rounds)
	for r := -1; r < rounds; r++ { // round -1 warms up and is not kept
		for i, cand := range cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			if err := diagnose(cand); err != nil {
				return nil, err
			}
			t := ms(time.Since(t0))
			runtime.ReadMemStats(&m1)
			if r >= 0 {
				times[i] = append(times[i], t)
				allocs[i] = append(allocs[i], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
				totals[r] += t
			}
		}
	}
	mean := sum(totals) / rounds
	var out []instSpec
	for i, cand := range cands {
		for r := range times[i] {
			times[i][r] *= mean / totals[r]
		}
		cand.spec.CostMS = trueMedian(times[i])
		cand.spec.AllocKB = trueMedian(allocs[i])
		if cand.spec.CostMS >= c.loMS && cand.spec.CostMS <= c.hiMS {
			out = append(out, cand.spec)
		}
	}
	return out, nil
}

// groupSlots turns vetted candidates into n slots: candidates sorted by
// cost are cut into runs of slotAlternatives whose costs agree within
// slotTolerance, and n runs are taken evenly across the cost range. It
// also returns how many runs it found; slots is nil when those are
// fewer than n.
func groupSlots(class string, vetted []instSpec, n int) (slots []slot, found int) {
	sort.SliceStable(vetted, func(i, j int) bool { return vetted[i].CostMS < vetted[j].CostMS })
	var groups []slot
	for i := 0; i+slotAlternatives <= len(vetted); {
		lo, hi := vetted[i].CostMS, vetted[i+slotAlternatives-1].CostMS
		if hi > lo*(1+slotTolerance) {
			i++
			continue
		}
		groups = append(groups, slot{Class: class, Alts: append([]instSpec(nil), vetted[i:i+slotAlternatives]...)})
		i += slotAlternatives
	}
	if len(groups) < n {
		return nil, len(groups)
	}
	out := make([]slot, n)
	for k := range out {
		idx := 0
		if n > 1 {
			idx = k * (len(groups) - 1) / (n - 1)
		}
		out[k] = groups[idx]
	}
	return out, len(groups)
}

// writeManifest regenerates the pool. Candidates come from each class's
// fixed generator; which of them land in the pool depends on measured
// cost, so run it on a quiet machine and commit the result.
func writeManifest(ctx context.Context, path string, only string) error {
	m := &manifest{
		Note: "Instance pool of the benchmark, written by `go run ./benchmark -write-manifest`. " +
			"Each slot lists alternatives of near-equal cost; --seed picks one per slot.",
		GoVersion: runtime.Version(),
		Workloads: map[string][]slot{},
	}
	if only != "all" {
		// Rewriting one workload keeps the others as the file has them
		// (the file, not the embedded copy, which is as old as the build).
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var old manifest
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if old.Workloads != nil {
			m.Workloads = old.Workloads
		}
	}
	for _, def := range workloads {
		if only != "all" && only != def.name {
			continue
		}
		var slots []slot
		for _, c := range def.classes {
			rng := rand.New(rand.NewSource(int64(len(c.name)) + 7))
			var cands []candidate
			var got []slot
			// Ask for spare candidates so the evenly spaced choice of slots
			// has something to choose from, and for half as many again
			// whenever they give too few slots.
			const maxCandidates = 6000
			tried := 0
			for need := 3 * slotAlternatives * c.slots; got == nil; need += need / 2 {
				for len(cands) < need {
					if err := ctx.Err(); err != nil {
						return err
					}
					if tried >= maxCandidates {
						return fmt.Errorf("%s/%s: %d candidates gave too few slots", def.name, c.name, tried)
					}
					cand, ok, err := vet(def.name, c, c.gen(rng, tried))
					tried++
					if err != nil {
						return err
					}
					if ok {
						cands = append(cands, cand)
					}
				}
				vetted, err := measure(ctx, def.name, c, cands)
				if err != nil {
					return err
				}
				var groups int
				got, groups = groupSlots(c.name, vetted, c.slots)
				fmt.Fprintf(os.Stderr, "%s/%s: %d candidates tried, %d vetted, %d in the cost window, %d slots of %d\n",
					def.name, c.name, tried, len(cands), len(vetted), groups, c.slots)
			}
			slots = append(slots, got...)
		}
		m.Workloads[def.name] = slots
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
