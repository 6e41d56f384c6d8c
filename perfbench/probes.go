package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/experiments"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/policy"
	"gippr/internal/resultstore"
	"gippr/internal/serve"
	"gippr/internal/stackdist"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// replayStreams are the captured streams the per-policy, window-model and
// stack-distance probes replay: phase 0 of each.
var replayStreams = []string{"mcf_like", "soplex_like", "omnetpp_like", "sphinx3_like"}

// probeReps is how many times each short probe repeats; it reports the
// median.
const probeReps = 3

// probeLayers measures every per-layer metric the workload did not measure
// itself, by timing calls into each layer's public functions on a probe lab
// over the memory-intensive workloads at the benchmark's size. Every probe
// runs the same way on every workload, so a layer's numbers compare across
// commits whichever workload they were reported with.
func probeLayers(cfg config, tr *tracer, out *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	wls, err := workloadsByName(memoryIntensive)
	if err != nil {
		return nil, err
	}
	specs, err := registrySpecs(defaultPolicies)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	scale := scaleOf(cfg)
	lab := experiments.NewLab(scale).SetWorkers(cfg.Workers)

	// Generation alone, of the very references the capture below pushes
	// through the hierarchy: the Lab's per-phase seeds, fanned out per
	// workload with its phases in turn, as Lab.PrefetchStreams does.
	id := tr.begin("probe", 0, "workload.Phase.Source")
	t := time.Now()
	parallel.For(cfg.Workers, len(wls), func(i int) {
		for pi, ph := range wls[i].Phases {
			src := &workload.Limit{Src: ph.Source(phaseSeed(wls[i].Name, pi)), N: uint64(cfg.Records)}
			for _, ok := src.Next(); ok; _, ok = src.Next() {
			}
		}
	})
	gen := time.Since(t)
	tr.end(id)
	var phases int
	for _, w := range wls {
		phases += len(w.Phases)
	}
	refs := float64(phases * cfg.Records)
	m["workload.gen_ns_per_ref"] = float64(gen.Nanoseconds()) / refs

	id = tr.begin("probe", 0, "experiments.Lab.PrefetchStreams")
	a0 := allocBytes()
	t = time.Now()
	lab.PrefetchStreams(wls)
	capture := time.Since(t)
	m["cache.capture_alloc_mb"] = float64(allocBytes()-a0) / 1e6
	tr.end(id)
	m["experiments.capture_s"] = capture.Seconds()
	m["cache.capture_ns_per_ref"] = float64((capture - gen).Nanoseconds()) / refs
	var llcRecords int
	for _, w := range wls {
		for _, st := range lab.Streams(w) {
			llcRecords += len(st.Records)
		}
	}
	m["cache.llc_filter_ratio"] = float64(llcRecords) / refs

	id = tr.begin("probe", 0, "experiments.Lab.Grid")
	t = time.Now()
	cells, err := lab.Grid(ctx, specs, wls, nil)
	replay := time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	m["experiments.replay_s"] = replay.Seconds()
	var agg []time.Duration
	for i := 0; i < probeReps; i++ {
		id := tr.begin("probe", 0, "experiments.Lab.Grid.memo")
		t := time.Now()
		lab.Grid(ctx, specs, wls, nil) //nolint:errcheck // Background never cancels
		agg = append(agg, time.Since(t))
		tr.end(id)
	}
	m["experiments.aggregate_ms"] = median(millis(agg))
	probeShare := distinctShare(cells, len(specs))
	checkEviction(&out.gate, probeShare, probeGridFloor)
	if _, ok := out.layer["experiments.policy_distinct_share"]; !ok {
		m["experiments.policy_distinct_share"] = probeShare
	}

	serial := lab.WithSampling(0).SetWorkers(1)
	id = tr.begin("probe", 0, "parallel.Lab.Grid.serial")
	t = time.Now()
	serial.Grid(ctx, specs, wls, nil) //nolint:errcheck // Background never cancels
	m["parallel.speedup"] = time.Since(t).Seconds() / replay.Seconds()
	tr.end(id)

	var streams [][]trace.Record
	var accesses, instrs float64
	for _, name := range replayStreams {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		recs := lab.Streams(w)[0].Records
		streams = append(streams, recs)
		accesses += float64(len(recs))
		instrs += float64(trace.Instructions(recs))
	}
	cfgLLC := lab.Cfg
	warm := func(recs []trace.Record) int { return int(float64(len(recs)) * scale.WarmFrac) }
	replayAll := func(name string, f policy.Factory, window bool, reps int) time.Duration {
		var ds []time.Duration
		for r := 0; r < reps; r++ {
			id := tr.begin("probe", 0, name)
			t := time.Now()
			for _, recs := range streams {
				pol := f.New(cfgLLC.Sets(), cfgLLC.Ways)
				if window {
					cpu.WindowReplay(recs, cfgLLC, pol, warm(recs), cpu.DefaultWindowModel())
				} else {
					cache.ReplayStream(recs, cfgLLC, pol, warm(recs))
				}
			}
			ds = append(ds, time.Since(t))
			tr.end(id)
		}
		return medianDur(ds)
	}
	for _, p := range replayPolicies {
		f, err := policy.Lookup(p)
		if err != nil {
			return nil, err
		}
		m["policy."+p+".replay_ns_per_access"] = float64(replayAll("policy.ReplayStream."+p, f, false, probeReps).Nanoseconds()) / accesses
	}
	// The window model's cost is a difference of two replays, so the pairs
	// interleave and the median pair stands for it.
	lru, err := policy.Lookup("lru")
	if err != nil {
		return nil, err
	}
	var window []time.Duration
	for r := 0; r < probeReps; r++ {
		window = append(window, replayAll("cpu.WindowReplay.lru", lru, true, 1)-replayAll("cache.ReplayStream.lru", lru, false, 1))
	}
	m["cpu.window_ns_per_instr"] = float64(medianDur(window).Nanoseconds()) / instrs

	var sd []time.Duration
	lattice := experiments.DefaultLatticeSpec(cfgLLC)
	for r := 0; r < probeReps; r++ {
		id := tr.begin("probe", 0, "stackdist.Run")
		t := time.Now()
		for _, recs := range streams {
			if _, err := stackdist.Run(recs, lattice.Options(cfgLLC.BlockBytes, warm(recs))); err != nil {
				return nil, err
			}
		}
		sd = append(sd, time.Since(t))
		tr.end(id)
	}
	m["stackdist.ns_per_access"] = float64(medianDur(sd).Nanoseconds()) / accesses

	if err := probeGA(cfg, tr, lab, m); err != nil {
		return nil, err
	}

	fresh := lab.WithSampling(0)
	var diffs []time.Duration
	for _, w := range wls {
		id := tr.begin("probe", 0, "explain.Lab.Diff")
		t := time.Now()
		if _, err := fresh.Diff(experiments.SpecLRU, experiments.SpecPLRU, w); err != nil {
			return nil, err
		}
		diffs = append(diffs, time.Since(t))
		tr.end(id)
	}
	m["explain.diff_ms_p50"] = median(millis(diffs))

	if err := probeStore(cfg, tr, lab, cells, m); err != nil {
		return nil, err
	}

	// Daemon metrics come from the serve-mix clients themselves; the other
	// workloads run a short fixed script against their own daemon.
	if _, ok := out.layer["serve.submit_ms_p50"]; !ok {
		short := cfg
		short.Seconds, short.SetupReps, short.MinJobs = 0, 1, 8
		sv, err := runServe(short, tr, false)
		if err != nil {
			return nil, err
		}
		for k, v := range sv.layer {
			if _, ok := out.layer[k]; !ok && k != "batchreplay.access_share" {
				m[k] = v
			}
		}
		if sv.gate.failed > 0 {
			out.gate.check(false, sv.gate.failed, "serve probe: %v", sv.gate.notes)
		}
	}

	for k, v := range out.layer {
		m[k] = v
	}
	return m, nil
}

// phaseSeed is the seed experiments.Lab gives a workload phase's reference
// source: FNV-1a of the workload name, mixed with the phase number.
func phaseSeed(name string, phase int) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return xrand.Mix(h, uint64(phase)+1)
}

// probeGA times ga.Env.Fitness per vector on the probe lab's streams,
// truncated as Lab.GAStreams truncates them.
func probeGA(cfg config, tr *tracer, lab *experiments.Lab, m map[string]float64) error {
	var streams []ga.Stream
	for _, name := range memoryIntensive {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, st := range lab.Streams(w) {
			recs := st.Records
			recs = recs[:len(recs)*lab.Scale.EvolveRecords/lab.Scale.PhaseRecords]
			streams = append(streams, ga.Stream{Workload: st.Workload, Weight: st.Weight, Records: recs})
		}
	}
	env := ga.NewEnv(lab.Cfg, cpu.DefaultLinearModel(), lab.Scale.WarmFrac, streams,
		func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) },
		func(sets, ways int, v ipv.Vector) cache.Policy { return policy.NewGIPPR(sets, ways, v) },
	).SetWorkers(cfg.Workers)
	env.Fitness(ipv.LRU(lab.Cfg.Ways)) // computes the baselines outside the timing
	rng := xrand.New(xrand.Mix(cfg.Seed, 0x6a))
	var evals []time.Duration
	for i := 0; i < 9; i++ {
		v := randomVector(rng, lab.Cfg.Ways)
		id := tr.begin("probe", 0, "ga.Env.Fitness")
		t := time.Now()
		env.Fitness(v)
		evals = append(evals, time.Since(t))
		tr.end(id)
	}
	m["ga.eval_ms_p50"] = median(millis(evals))
	return nil
}

// probeStore times resultstore Put and Get with served-result payloads: the
// probe grid's cells for one workload, as a grid job's result carries them.
func probeStore(cfg config, tr *tracer, lab *experiments.Lab, cells []experiments.GridCell, m map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.OutDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return err
	}
	n := len(defaultPolicies)
	var puts, gets []time.Duration
	for i := 0; i+n <= len(cells); i += n {
		res := serve.Result{
			Fingerprint: fmt.Sprintf("perfbench-probe|%d", i),
			Cache: telemetry.CacheGeometry{
				Name: lab.Cfg.Name, SizeBytes: lab.Cfg.SizeBytes, Ways: lab.Cfg.Ways,
				BlockBytes: lab.Cfg.BlockBytes, Sets: lab.Cfg.Sets(),
			},
			Records: lab.Scale.PhaseRecords, WarmFrac: lab.Scale.WarmFrac,
			Cells: cells[i : i+n],
		}
		id := tr.begin("probe", 0, "resultstore.Store.Put")
		t := time.Now()
		if err := st.Put(res.Fingerprint, &res); err != nil {
			return err
		}
		puts = append(puts, time.Since(t))
		tr.end(id)
	}
	for i := 0; i+n <= len(cells); i += n {
		var res serve.Result
		fp := fmt.Sprintf("perfbench-probe|%d", i)
		id := tr.begin("probe", 0, "resultstore.Store.Get")
		t := time.Now()
		if !st.Get(fp, &res) {
			return fmt.Errorf("probe store: entry %s missing", filepath.Join(dir, resultstore.Key(fp)))
		}
		gets = append(gets, time.Since(t))
		tr.end(id)
	}
	s := st.Stats()
	m["resultstore.put_ms_p50"] = median(millis(puts))
	m["resultstore.get_ms_p50"] = median(millis(gets))
	m["resultstore.entry_kb"] = float64(s.Bytes) / 1e3 / float64(max(s.Entries, 1))
	return nil
}

func medianDur(ds []time.Duration) time.Duration { return time.Duration(median(seconds(ds)) * 1e9) }

// packable reports whether spec's policy replays on the batched kernel.
func packable(cfg cache.Config, spec experiments.Spec) bool {
	_, ok := cache.NewPackedReplay(cfg, spec.New(memoryIntensive[0], cfg.Sets(), cfg.Ways))
	return ok
}

// packedShare is the share of a grid's replayed accesses that run on the
// batched kernel: every spec replays every stream, so it is the share of
// specs whose policy qualifies.
func packedShare(lab *experiments.Lab, specs []experiments.Spec) float64 {
	n := 0
	for _, s := range specs {
		if packable(lab.Cfg, s) {
			n++
		}
	}
	return float64(n) / float64(len(specs))
}
