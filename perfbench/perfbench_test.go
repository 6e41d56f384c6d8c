package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/experiments"
	"gippr/internal/policy"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	sort.Strings(workloads)
	return workloads, e2e, layer
}

// tinyConfig runs every part of a workload at a size that takes seconds.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace = workload, 7, 0.01, trace
	cfg.Records, cfg.SetupReps, cfg.MinJobs = 20_000, 1, 4
	cfg.SearchBatches, cfg.RandomIPVs, cfg.GAPopulation, cfg.GAGenerations = 2, 2, 4, 1
	cfg.CheckReference = false
	cfg.OutDir = t.TempDir()
	return cfg
}

// TestSelfTest runs every workload untraced and traced at a tiny size and
// checks that it emits exactly the metrics BENCHMARK.json declares, with
// their units, and that no check fails other than the eviction guard,
// which a tiny grid trips by design.
func TestSelfTest(t *testing.T) {
	names, e2e, layer := loadBenchmarkJSON(t)
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Fatalf("BENCHMARK.json lists workload %s, the benchmark has %v", name, workloadNames())
		}
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name, traced)
			rep, err := execute(cfg, workloads[name])
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.Metrics), len(want))
			}
			for n, m := range rep.Metrics {
				if unit, ok := want[n]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s [%s] not declared as such (declared unit %q)", name, traced, n, m.Unit, unit)
				}
			}
			for _, note := range rep.notes {
				if !strings.HasPrefix(note, "eviction guard") {
					t.Errorf("%s trace=%t: check failed: %s", name, traced, note)
				}
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%t: attempted %d", name, traced, rep.Attempted)
			}
		}
	}
}

// TestEvictionGuardTripsAtSmokeScale holds the guard to its purpose: grids
// at smoke scale (60k references per phase), where the LLC barely evicts,
// must fail it on grid-cold, policy-grid and the probes' grid, which
// traced runs of every workload check.
func TestEvictionGuardTripsAtSmokeScale(t *testing.T) {
	defaults, err := registrySpecs(defaultPolicies)
	if err != nil {
		t.Fatal(err)
	}
	all, err := registrySpecs(policy.Names())
	if err != nil {
		t.Fatal(err)
	}
	mi, err := workloadsByName(memoryIntensive)
	if err != nil {
		t.Fatal(err)
	}
	lab := experiments.NewLab(experiments.Smoke).SetWorkers(2)
	for _, c := range []struct {
		name  string
		grid  func() ([]experiments.GridCell, error)
		specs int
		floor float64
	}{
		{"grid-cold", func() ([]experiments.GridCell, error) {
			return lab.Grid(context.Background(), defaults, lab.Suite(), nil)
		}, len(defaults), gridColdFloor},
		{"policy-grid", func() ([]experiments.GridCell, error) {
			return lab.Grid(context.Background(), all, mi, nil)
		}, len(all), policyGridFloor},
		{"probe grid", func() ([]experiments.GridCell, error) {
			return lab.Grid(context.Background(), defaults, mi, nil)
		}, len(defaults), probeGridFloor},
	} {
		cells, err := c.grid()
		if err != nil {
			t.Fatal(err)
		}
		var g gate
		share := distinctShare(cells, c.specs)
		t.Logf("%s at smoke scale: policies differ on %.3f of workloads", c.name, share)
		checkEviction(&g, share, c.floor)
		if g.failed != 1 {
			t.Errorf("%s: eviction guard passed a smoke-scale grid (share %.3f, floor %.3f)", c.name, share, c.floor)
		}
	}
}

// TestServeMixEvictionGuardTripsAtSmokeScale does the same for serve-mix's
// guard: grid jobs with different random vectors, served at smoke scale,
// agree on too many workloads.
func TestServeMixEvictionGuardTripsAtSmokeScale(t *testing.T) {
	mi, err := workloadsByName(memoryIntensive)
	if err != nil {
		t.Fatal(err)
	}
	lab := experiments.NewLab(experiments.Smoke).SetWorkers(2)
	rng := xrand.New(7)
	var specs []experiments.Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, experiments.SpecForIPV("GIPPR*", randomVector(rng, lab.Cfg.Ways)))
	}
	cells, err := lab.Grid(context.Background(), specs, mi, nil)
	if err != nil {
		t.Fatal(err)
	}
	mpki := map[string][]float64{}
	for _, c := range cells {
		mpki[c.Workload] = append(mpki[c.Workload], c.MPKI)
	}
	var g gate
	share := vectorDistinctShare(mpki)
	t.Logf("serve-mix at smoke scale: vectors differ on %.3f of workloads", share)
	checkEviction(&g, share, serveMixFloor)
	if g.failed != 1 {
		t.Errorf("eviction guard passed smoke-scale grid jobs (share %.3f, floor %.3f)", share, serveMixFloor)
	}
}

// TestPhaseSeedMatchesLab holds the generation probe to the references the
// capture probe pushes through the hierarchy: a phase source seeded with
// phaseSeed, filtered by the Lab's L1/L2/L3, must give the Lab's stream.
func TestPhaseSeedMatchesLab(t *testing.T) {
	const records = 20_000
	lab := experiments.NewLab(experiments.CustomScale(records, 1.0/3))
	w, err := workload.ByName("mcf_like")
	if err != nil {
		t.Fatal(err)
	}
	for pi, ph := range w.Phases {
		lru := func(c cache.Config) *cache.Cache { return cache.New(c, policy.NewTrueLRU(c.Sets(), c.Ways)) }
		h := cache.NewHierarchy(lru(cache.L1Config), lru(cache.L2Config), lru(lab.Cfg))
		h.RecordLLC = true
		h.Run(&workload.Limit{Src: ph.Source(phaseSeed(w.Name, pi)), N: records})
		want := lab.Streams(w)[pi].Records
		if len(h.LLCStream) != len(want) {
			t.Fatalf("phase %d: %d LLC records, the Lab captured %d", pi, len(h.LLCStream), len(want))
		}
		for i := range want {
			if h.LLCStream[i] != want[i] {
				t.Fatalf("phase %d: record %d is %+v, the Lab captured %+v", pi, i, h.LLCStream[i], want[i])
			}
		}
	}
}

func TestDistinctShare(t *testing.T) {
	cells := []experiments.GridCell{
		{Workload: "a", MPKI: 1}, {Workload: "a", MPKI: 1},
		{Workload: "b", MPKI: 1}, {Workload: "b", MPKI: 2},
	}
	if got := distinctShare(cells, 2); got != 0.5 {
		t.Fatalf("distinctShare = %v, want 0.5", got)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := covered(iv, 0, 25); got != 20 {
		t.Fatalf("covered = %d, want 20", got)
	}
}
