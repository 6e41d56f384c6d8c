package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// defaultPolicies are gippr-sim's and gippr-serve's default policy list.
var defaultPolicies = []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"}

// memoryIntensive are the workloads on which replacement decides most
// misses; policy-grid, the probes and serve-mix run on them.
var memoryIntensive = []string{
	"mcf_like", "libquantum_like", "lbm_like", "milc_like",
	"soplex_like", "sphinx3_like", "omnetpp_like", "hmmer_like",
}

// Eviction-guard floors: the share of workloads whose MPKI must differ
// across policies, or across the random vectors serve-mix's grid jobs
// carry. At 400k references per phase the default policies differ on 19 of
// 29 suite workloads and on all 8 memory-intensive ones, the registered
// policies and random vectors on all 8 memory-intensive ones; at smoke
// scale (60k) on 4 of 29, 4 of 8 and 4 of 8.
const (
	gridColdFloor   = 0.6
	policyGridFloor = 0.99
	probeGridFloor  = 0.99 // the probes' default-policy grid
	serveMixFloor   = 0.99
)

func registrySpecs(names []string) ([]experiments.Spec, error) {
	specs := make([]experiments.Spec, len(names))
	for i, n := range names {
		s, err := experiments.SpecFromRegistry(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

func workloadsByName(names []string) ([]workload.Workload, error) {
	out := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func scaleOf(cfg config) experiments.Scale { return experiments.CustomScale(cfg.Records, 1.0/3) }

// gridPlan describes a workload that times Lab.Grid passes.
type gridPlan struct {
	specs []experiments.Spec
	wls   []workload.Workload
	floor float64
	// setup runs once per set-up repetition and returns the lab the timed
	// phase starts from (nil when every pass builds its own).
	setup func() *experiments.Lab
	// passLab returns the lab one timed pass runs on.
	passLab func(base *experiments.Lab) *experiments.Lab
}

// gridCold regenerates the default-policy grid over the whole suite from
// nothing, capture included, on a fresh Lab each pass.
func gridCold(cfg config, tr *tracer) (*outcome, error) {
	specs, err := registrySpecs(defaultPolicies)
	if err != nil {
		return nil, err
	}
	scale := scaleOf(cfg)
	warmup := experiments.CustomScale(max(cfg.Records/20, 1000), 1.0/3)
	return runGrid(cfg, tr, gridPlan{
		specs: specs,
		wls:   workload.Suite(),
		floor: gridColdFloor,
		// Set-up warms the process (code, heap size) with a grid a twentieth
		// the size; users pay the full capture on every regeneration.
		setup: func() *experiments.Lab {
			lab := experiments.NewLab(warmup).SetWorkers(cfg.Workers)
			lab.Grid(context.Background(), specs, lab.Suite(), nil) //nolint:errcheck // Background never cancels
			return nil
		},
		passLab: func(*experiments.Lab) *experiments.Lab {
			return experiments.NewLab(scale).SetWorkers(cfg.Workers)
		},
	})
}

// policyGrid replays every registered policy over the memory-intensive
// workloads' streams, captured during set-up, on a fresh memo each pass.
func policyGrid(cfg config, tr *tracer) (*outcome, error) {
	specs, err := registrySpecs(policy.Names())
	if err != nil {
		return nil, err
	}
	wls, err := workloadsByName(memoryIntensive)
	if err != nil {
		return nil, err
	}
	scale := scaleOf(cfg)
	return runGrid(cfg, tr, gridPlan{
		specs: specs,
		wls:   wls,
		floor: policyGridFloor,
		setup: func() *experiments.Lab {
			lab := experiments.NewLab(scale).SetWorkers(cfg.Workers)
			lab.PrefetchStreams(wls)
			return lab
		},
		passLab: func(base *experiments.Lab) *experiments.Lab { return base.WithSampling(0) },
	})
}

// hitsPerPass is how many memo-answered requests follow each timed pass or
// iteration: enough that their 90th percentile has many samples beyond it.
const hitsPerPass = 100

// runGrid times passes of Lab.Grid until the run's seconds are spent. A
// pass asks for every workload's row with its own Lab.Grid call, issued
// from cfg.Workers goroutines, which is the work Lab.Grid's own fan-out
// does for a whole grid; timing rows one by one gives the run dozens of
// samples instead of a few passes. A job is one row, from its call until
// its cells return; a hit is a repeat of the whole grid on the pass's
// settled memo, encoded as JSON the way a served or saved grid is. Rates
// are per pass: the rows' work over their summed host time, times the
// workers that run rows at once.
func runGrid(cfg config, tr *tracer, p gridPlan) (*outcome, error) {
	out := newOutcome()
	out.concurrency = cfg.Workers
	var base *experiments.Lab
	for i := 0; i < cfg.SetupReps; i++ {
		base = nil
		runtime.GC()
		id := tr.begin("setup", 0, "bench.setup")
		t := time.Now()
		base = p.setup()
		out.setup = append(out.setup, time.Since(t))
		tr.end(id)
	}

	ctx := context.Background()
	nSpecs := len(p.specs)
	var (
		lab      *experiments.Lab
		cells    []experiments.GridCell
		rowInstr []uint64
	)
	start := time.Now()
	for pass := 0; pass == 0 || !elapsed(start, cfg); pass++ {
		run := fmt.Sprintf("pass-%d", pass)
		lab = nil
		lab = p.passLab(base)
		root := tr.begin(run, 0, "bench.pass")
		cells = make([]experiments.GridCell, len(p.wls)*nSpecs)
		rows := make([]time.Duration, len(p.wls))
		errs := make([]error, len(p.wls))
		var next atomic.Int64
		var wg sync.WaitGroup
		a0 := allocBytes()
		for g := 0; g < cfg.Workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(p.wls); i = int(next.Add(1)) - 1 {
					id := tr.begin(run, root, "experiments.Lab.Grid")
					t := time.Now()
					row, err := lab.Grid(ctx, p.specs, p.wls[i:i+1], nil)
					rows[i] = time.Since(t)
					tr.end(id)
					copy(cells[i*nSpecs:], row)
					errs[i] = err
				}
			}()
		}
		wg.Wait()
		out.allocs = append(out.allocs, allocBytes()-a0)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if pass == 0 {
			for _, w := range p.wls {
				rowInstr = append(rowInstr, replayedInstructions(lab, []workload.Workload{w})*uint64(nSpecs))
			}
		}
		// The pass is one unit: its rows' instructions over their summed host
		// time, so every row weighs in proportion to its cost.
		u := unit{done: len(rows)}
		for i, d := range rows {
			out.jobs = append(out.jobs, d)
			u.d += d
			u.instr += rowInstr[i]
		}
		out.units = append(out.units, u)

		dg := newDigest()
		dg.cells(cells)
		sum := dg.sum()
		if pass == 0 {
			out.digest = sum
		}
		out.gate.check(sum == out.digest, len(cells), "%s: cells differ from pass 0", run)

		runtime.GC()
		for i := 0; i < hitsPerPass; i++ {
			id := tr.begin(run, root, "experiments.Lab.Grid.memo")
			t := time.Now()
			memo, _ := lab.Grid(ctx, p.specs, p.wls, nil) // Background never cancels
			if _, err := json.Marshal(memo); err != nil {
				return nil, err
			}
			out.hits = append(out.hits, time.Since(t))
			tr.end(id)
		}
		tr.end(root)
	}
	out.heapLive = liveHeap()

	// Engine identity: a seeded sample of cells must equal standalone
	// window-model replays of the same policy on the same streams.
	rng := xrand.New(xrand.Mix(cfg.Seed, 0x9e1d))
	for i := 0; i < 2; i++ {
		wi, si := rng.Intn(len(p.wls)), rng.Intn(nSpecs)
		got := cells[wi*nSpecs+si]
		want := cellFromReplays(lab, p.specs[si], p.wls[wi])
		out.gate.check(got == want, 1, "identity: grid cell %+v != standalone replay %+v", got, want)
	}
	share := distinctShare(cells, nSpecs)
	out.layer["experiments.policy_distinct_share"] = share
	checkEviction(&out.gate, share, p.floor)
	out.layer["batchreplay.access_share"] = packedShare(lab, p.specs)
	return out, nil
}

// replayedInstructions sums the instruction counts of the workloads'
// captured phase streams: what one policy's replay of them simulates.
func replayedInstructions(lab *experiments.Lab, wls []workload.Workload) uint64 {
	var n uint64
	for _, w := range wls {
		for _, st := range lab.Streams(w) {
			n += trace.Instructions(st.Records)
		}
	}
	return n
}
