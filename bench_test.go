package gippr

// One benchmark per paper figure (DESIGN.md section 3), plus ablation
// benches for the design decisions DESIGN.md calls out and microbenchmarks
// of the simulation kernels.
//
// Figure benches compute their experiment once per process (memoized lab,
// shared across benches) and report the figure's headline series as custom
// benchmark metrics, so `go test -bench=Fig` regenerates the paper's
// numbers. The full per-benchmark tables come from `go run
// ./cmd/gippr-report`. Scale follows GIPPR_SCALE (default: "default").

import (
	"fmt"
	"sync"
	"testing"

	"gippr/internal/batchreplay"
	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/experiments"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/stats"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
)

func lab() *experiments.Lab {
	benchOnce.Do(func() { benchLab = experiments.NewLab(experiments.ScaleFromEnv()) })
	return benchLab
}

// BenchmarkFig1RandomIPVSweep: the sorted random design-space exploration.
// Reported metrics: best and median estimated speedup and the fraction of
// random vectors beating LRU (paper: a small minority, best around +2.8%).
func BenchmarkFig1RandomIPVSweep(b *testing.B) {
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(lab())
	}
	b.ReportMetric(res.Summary.Max, "best-speedup")
	b.ReportMetric(res.Summary.Median, "median-speedup")
	b.ReportMetric(res.Summary.FractionAboveOne, "frac-beating-lru")
}

// BenchmarkFig2LRUTransitionGraph and BenchmarkFig3GIPLRTransitionGraph
// build the structural figures (they also serve as microbenchmarks of graph
// construction).
func BenchmarkFig2LRUTransitionGraph(b *testing.B) {
	var edges int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig2()
		edges = len(g.Solid) + len(g.Dashed)
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkFig3GIPLRTransitionGraph(b *testing.B) {
	var edges int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig3()
		edges = len(g.Solid) + len(g.Dashed)
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkFig4GIPLRSpeedup: geometric-mean speedup over LRU of PLRU,
// Random and the evolved GIPLR vector (paper: ~1.00, ~0.999, ~1.031).
func BenchmarkFig4GIPLRSpeedup(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig4(lab())
	}
	b.ReportMetric(t.GeoMean("PLRU"), "plru-speedup")
	b.ReportMetric(t.GeoMean("Random"), "random-speedup")
	b.ReportMetric(t.GeoMean("GIPLR"), "giplr-speedup")
}

// BenchmarkFig8PLRUPositions exercises the Figure 8 structural property:
// reading all 16 positions of a PseudoLRU tree.
func BenchmarkFig8PLRUPositions(b *testing.B) {
	tr := policy.NewPLRU(1, 16).Tree(0)
	s := 0
	for i := 0; i < b.N; i++ {
		tr.Promote(i & 15)
		for w := 0; w < 16; w++ {
			s += tr.Position(w)
		}
	}
	_ = s
}

// BenchmarkFig10NormalizedMPKI: geometric-mean MPKI normalized to LRU for
// the 1-, 2- and 4-vector workload-neutral GIPPR and Belady MIN
// (paper: 95.2%, 96.5%, 91.0%, 67.5%).
func BenchmarkFig10NormalizedMPKI(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10(lab())
	}
	b.ReportMetric(t.GeoMean("WN-GIPPR"), "wn-gippr")
	b.ReportMetric(t.GeoMean("WN-2-DGIPPR"), "wn-2dgippr")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(t.GeoMean("Optimal"), "optimal")
}

// BenchmarkFig11MPKIvsStateOfArt: geometric-mean normalized MPKI of DRRIP,
// PDP and WN-4-DGIPPR (paper: 91.5%, 90.2%, 91.0%).
func BenchmarkFig11MPKIvsStateOfArt(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig11(lab())
	}
	b.ReportMetric(t.GeoMean("DRRIP"), "drrip")
	b.ReportMetric(t.GeoMean("PDP"), "pdp")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(t.GeoMean("Optimal"), "optimal")
}

// BenchmarkFig12WNvsWI: workload-neutral vs workload-inclusive speedups
// (paper: 3.47/4.96/5.61% WN vs 3.68/5.12/5.66% WI).
func BenchmarkFig12WNvsWI(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig12(lab())
	}
	b.ReportMetric(t.GeoMean("WN-GIPPR"), "wn-1")
	b.ReportMetric(t.GeoMean("WN-2-DGIPPR"), "wn-2")
	b.ReportMetric(t.GeoMean("WN-4-DGIPPR"), "wn-4")
	b.ReportMetric(t.GeoMean("WI-GIPPR"), "wi-1")
	b.ReportMetric(t.GeoMean("WI-2-DGIPPR"), "wi-2")
	b.ReportMetric(t.GeoMean("WI-4-DGIPPR"), "wi-4")
}

// BenchmarkFig13Speedup: overall and memory-intensive-subset speedups of
// DRRIP, PDP and WN-4-DGIPPR (paper: 5.41/5.69/5.61% overall,
// 15.6/16.4/15.6% on the subset).
func BenchmarkFig13Speedup(b *testing.B) {
	var res experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig13(lab())
	}
	b.ReportMetric(res.Table.GeoMean("DRRIP"), "drrip")
	b.ReportMetric(res.Table.GeoMean("PDP"), "pdp")
	b.ReportMetric(res.Table.GeoMean("WN-4-DGIPPR"), "wn-4dgippr")
	b.ReportMetric(res.SubsetGeoMeans["DRRIP"], "drrip-subset")
	b.ReportMetric(res.SubsetGeoMeans["PDP"], "pdp-subset")
	b.ReportMetric(res.SubsetGeoMeans["WN-4-DGIPPR"], "wn-4dgippr-subset")
	b.ReportMetric(float64(len(res.MemoryIntensive)), "subset-size")
}

// BenchmarkOverheadTable: the Section 3.6 storage comparison; reported
// metric is GIPPR's bits per block (paper: < 0.94).
func BenchmarkOverheadTable(b *testing.B) {
	var rows []policy.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = policy.OverheadTable(cache.L3Config, []string{"lru", "plru", "gippr", "2-dgippr", "4-dgippr", "drrip", "pdp"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Policy {
		case "GIPPR":
			b.ReportMetric(r.BitsPerBlock, "gippr-bits/block")
		case "LRU":
			b.ReportMetric(r.BitsPerBlock, "lru-bits/block")
		case "DRRIP":
			b.ReportMetric(r.BitsPerBlock, "drrip-bits/block")
		}
	}
}

// BenchmarkVectorsLearned: one GA run at the current scale (the Section 5.3
// pipeline end-to-end); metric is the best fitness found.
func BenchmarkVectorsLearned(b *testing.B) {
	var res experiments.VectorsLearnedResult
	for i := 0; i < b.N; i++ {
		res = experiments.VectorsLearned(lab())
	}
	b.ReportMetric(res.FreshFit, "best-fitness")
}

// BenchmarkLabGrid measures the parallel evaluation engine on a smoke-scale
// multi-policy grid: each iteration builds a fresh Lab (no memoization
// carry-over) and evaluates 4 policies x 8 workloads end to end, stream
// capture included. Sub-benchmark wall-clock times at workers=1 vs 4 show
// the engine's speedup on multi-core hardware; on a single-core machine the
// times converge instead (the pool degrades to the serial loop).
func BenchmarkLabGrid(b *testing.B) {
	specs := []experiments.Spec{
		experiments.SpecLRU, experiments.SpecPLRU,
		experiments.SpecDRRIP, experiments.SpecSRRIP,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := experiments.NewLab(experiments.Smoke).SetWorkers(workers)
				l.PrefetchWorkloads(specs, l.Suite()[:8], false)
			}
		})
	}
}

// BenchmarkGridMultiPass measures what the single-pass engine buys on a
// simulation-tool grid (gippr-sim's default policy suite over three
// workloads): the per-cell baseline regenerates and re-filters the phase
// stream for every (workload, policy) cell — the shape of the old grid —
// while the single-pass variant captures each phase once and replays every
// policy from that walk via cpu.MultiWindowReplay. Capture dwarfs a single
// policy's replay, so single-pass should run at least ~2x faster on this
// suite (and allocate roughly 1/len(policies) as much).
func BenchmarkGridMultiPass(b *testing.B) {
	const records = 60_000
	wlNames := []string{"mcf_like", "lbm_like", "sphinx3_like"}
	polNames := []string{"lru", "plru", "drrip", "pdp", "gippr", "4-dgippr"}
	var wls []workload.Workload
	for _, n := range wlNames {
		w, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		wls = append(wls, w)
	}
	mks := make([]func(sets, ways int) cache.Policy, len(polNames))
	for i, n := range polNames {
		f, err := policy.Lookup(n)
		if err != nil {
			b.Fatal(err)
		}
		mks[i] = f.New
	}
	cfg := cache.L3Config
	capture := func(w workload.Workload, pi int) []trace.Record {
		sess, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h := sess.Hierarchy(policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
		h.RecordLLC = true
		h.ReserveLLC(records)
		src := &workload.Limit{Src: w.Phases[pi].Source(xrand.Mix(uint64(pi), 0x5eed)), N: records}
		h.Run(src)
		return h.LLCStream
	}
	b.Run("per-cell-capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range wls {
				for pi := range w.Phases {
					for _, mk := range mks {
						stream := capture(w, pi)
						cpu.WindowReplay(stream, cfg, mk(cfg.Sets(), cfg.Ways),
							len(stream)/3, cpu.DefaultWindowModel())
					}
				}
			}
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range wls {
				for pi := range w.Phases {
					stream := capture(w, pi)
					pols := make([]cache.Policy, len(mks))
					models := make([]*cpu.WindowModel, len(mks))
					for j, mk := range mks {
						pols[j] = mk(cfg.Sets(), cfg.Ways)
						models[j] = cpu.DefaultWindowModel()
					}
					cpu.MultiWindowReplay(stream, cfg, pols, len(stream)/3, models, nil)
				}
			}
		}
	})
}

// --- ablation benches (DESIGN.md section 4) ------------------------------

// thrashStream is the ablation workload: a cyclic loop at 1.4x LLC
// capacity, the regime where the design choices matter most.
func thrashStream(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 3, Addr: uint64(i%(90<<10)) * 64}
	}
	return recs
}

// BenchmarkAblationVectorCount compares 1-, 2-, 4- and 8-vector DGIPPR
// miss counts on the thrash workload (paper Section 3.5: "extending beyond
// four vectors yields diminishing returns" — the 8-vector bracket should
// not improve meaningfully on the 4-vector tournament).
func BenchmarkAblationVectorCount(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(500_000)
	vecs := []ipv.Vector{
		ipv.PaperWI4DGIPPR[0], ipv.PaperWI4DGIPPR[1],
		ipv.PaperWI4DGIPPR[2], ipv.PaperWI4DGIPPR[3],
		ipv.PaperWIGIPPR, ipv.PaperWI2DGIPPR[0], ipv.LRU(16), ipv.LIP(16),
	}
	for _, n := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "1-vector", 2: "2-vector", 4: "4-vector", 8: "8-vector"}[n]
		b.Run(name, func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				var pol cache.Policy
				if n == 8 {
					pol = policy.NewDGIPPRBracket(cfg.Sets(), cfg.Ways, vecs[:8])
				} else {
					pol = policy.NewDGIPPRN(cfg.Sets(), cfg.Ways, vecs[:n])
				}
				rs := cache.ReplayStream(stream, cfg, pol, len(stream)/3)
				misses = rs.Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationLeaderSets sweeps the number of leader sets per vector
// in 4-DGIPPR (design decision 3: 32 leaders is the customary choice).
func BenchmarkAblationLeaderSets(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(500_000)
	for _, leaders := range []int{8, 16, 32, 64} {
		b.Run(map[int]string{8: "8", 16: "16", 32: "32", 64: "64"}[leaders], func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				pol := policy.NewDGIPPR4WithDuel(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR, leaders, 11)
				rs := cache.ReplayStream(stream, cfg, pol, len(stream)/3)
				misses = rs.Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationFullHierarchyVsReplay validates design decision 2: the
// LLC-stream replay must report the same LLC misses as a full-hierarchy
// re-simulation (L1/L2 are policy-independent). Metric: relative miss
// delta, which should be ~0.
func BenchmarkAblationFullHierarchyVsReplay(b *testing.B) {
	w, err := workload.ByName("sphinx3_like")
	if err != nil {
		b.Fatal(err)
	}
	var delta float64
	for i := 0; i < b.N; i++ {
		const records = 200_000
		mkHier := func(llc cache.Policy) *cache.Hierarchy {
			return cache.NewHierarchy(
				cache.New(cache.L1Config, policy.NewTrueLRU(cache.L1Config.Sets(), cache.L1Config.Ways)),
				cache.New(cache.L2Config, policy.NewTrueLRU(cache.L2Config.Sets(), cache.L2Config.Ways)),
				cache.New(cache.L3Config, llc),
			)
		}
		// Full hierarchy with DRRIP at the LLC.
		full := mkHier(policy.NewDRRIP(cache.L3Config.Sets(), cache.L3Config.Ways))
		src := &workload.Limit{Src: w.Phases[0].Source(9), N: records}
		full.Run(src)
		fullMisses := full.L3.Stats.Misses

		// Capture stream under LRU, then replay into DRRIP.
		capt := mkHier(policy.NewTrueLRU(cache.L3Config.Sets(), cache.L3Config.Ways))
		capt.RecordLLC = true
		src2 := &workload.Limit{Src: w.Phases[0].Source(9), N: records}
		capt.Run(src2)
		rs := cache.ReplayStream(capt.LLCStream, cache.L3Config,
			policy.NewDRRIP(cache.L3Config.Sets(), cache.L3Config.Ways), 0)
		delta = stats.Normalize(float64(rs.Misses), float64(fullMisses)) - 1
	}
	b.ReportMetric(delta, "relative-miss-delta")
}

// BenchmarkAblationWindowVsLinearModel compares the two timing models'
// speedup estimates for 4-DGIPPR over LRU on the thrash workload (design
// decision: the GA uses the cheap linear model; the figures use the window
// model).
func BenchmarkAblationWindowVsLinearModel(b *testing.B) {
	cfg := cache.L3Config
	stream := thrashStream(400_000)
	warm := len(stream) / 3
	var windowSpeedup, linearSpeedup float64
	for i := 0; i < b.N; i++ {
		lin := cpu.DefaultLinearModel()
		lruRS := cache.ReplayStream(stream, cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways), warm)
		d4RS := cache.ReplayStream(stream, cfg, policy.NewDGIPPR4(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR), warm)
		linearSpeedup = lin.CPIFromReplay(lruRS) / lin.CPIFromReplay(d4RS)

		lruW := cpu.WindowReplay(stream, cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways), warm, cpu.DefaultWindowModel())
		d4W := cpu.WindowReplay(stream, cfg, policy.NewDGIPPR4(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR), warm, cpu.DefaultWindowModel())
		windowSpeedup = lruW.CPI / d4W.CPI
	}
	b.ReportMetric(windowSpeedup, "window-speedup")
	b.ReportMetric(linearSpeedup, "linear-speedup")
}

// --- extension benches (paper Section 7 future work) ----------------------

// BenchmarkExtensionMulticore: 4-core shared-LLC throughput normalized to
// LRU on the memory-intensive mix.
func BenchmarkExtensionMulticore(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Multicore(lab())
	}
	b.ReportMetric(t.Value("intensive", "WI-4-DGIPPR"), "dgippr4-intensive")
	b.ReportMetric(t.Value("intensive", "DRRIP"), "drrip-intensive")
	b.ReportMetric(t.Value("friendly", "WI-4-DGIPPR"), "dgippr4-friendly")
}

// BenchmarkExtensionAssocSweep: GIPPR's normalized MPKI at 8 through 64
// ways (future-work item 6).
func BenchmarkExtensionAssocSweep(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AssocSweep(lab())
	}
	b.ReportMetric(t.Value("8-way", "GIPPR"), "gippr-8way")
	b.ReportMetric(t.Value("16-way", "GIPPR"), "gippr-16way")
	b.ReportMetric(t.Value("64-way", "GIPPR"), "gippr-64way")
}

// BenchmarkExtensionRRIPVSearch: exhaustive search of the 1024 RRIP
// transition vectors (future-work items 3 and 5).
func BenchmarkExtensionRRIPVSearch(b *testing.B) {
	var res experiments.RRIPVResult
	for i := 0; i < b.N; i++ {
		res = experiments.RRIPVSearch(lab())
	}
	b.ReportMetric(res.BestFitness, "best-hitrate")
	b.ReportMetric(res.HPFitness, "srrip-hp-hitrate")
}

// BenchmarkExtensionBypass: GIPPR+bypass versus plain GIPPR, geomean MPKI
// normalized to LRU (future-work item 1).
func BenchmarkExtensionBypass(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Bypass(lab())
	}
	b.ReportMetric(t.GeoMean("WI-GIPPR"), "gippr")
	b.ReportMetric(t.GeoMean("GIPPR+bypass"), "gippr-bypass")
}

// --- microbenchmarks of the simulation kernels ----------------------------

func microStream(n int) []trace.Record {
	rng := xrand.New(0xbe)
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 3, Addr: rng.Uint64n(200<<10) * 64, PC: rng.Uint64n(64) * 4}
	}
	return recs
}

func benchPolicy(b *testing.B, mk func(sets, ways int) cache.Policy) {
	cfg := cache.L3Config
	stream := microStream(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.ReplayStream(stream, cfg, mk(cfg.Sets(), cfg.Ways), 0)
	}
	reportPerAccess(b, len(stream))
}

// reportPerAccess reports host time per simulated access. Replay
// benchmarks report it instead of SetBytes, whose MB/s column would count
// accesses as bytes.
func reportPerAccess(b *testing.B, accesses int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
}

// BenchmarkReplayStream measures the simulator's hot loop on both engines.
// The scalar pair pins the telemetry tax: the cache and policy are built
// outside the timed region so the loop body is pure Access traffic — with
// the sink disabled the only cost is a handful of nil checks, with a sink
// attached every hit, miss, eviction, fill and IPV move is recorded into
// fixed-size counters and histograms. The batched pair drives the same
// stream through the branch-free kernel (internal/batchreplay) that
// ReplayStream dispatches Packable policies onto; its speedup over the
// scalar engine is the whole point of the kernel (EXPERIMENTS.md records
// the measured ratio). All four variants must report 0 allocs/op.
func BenchmarkReplayStream(b *testing.B) {
	cfg := cache.L3Config
	stream := microStream(100_000)
	runScalar := func(b *testing.B, sink *telemetry.Sink) {
		c := cache.New(cfg, policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR))
		if sink != nil {
			c.SetTelemetry(sink)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range stream {
				c.Access(r)
			}
		}
		reportPerAccess(b, len(stream))
	}
	runBatched := func(b *testing.B, sink *telemetry.Sink) {
		pr, ok := cache.NewPackedReplay(cfg, policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR))
		if !ok {
			b.Fatal("GIPPR did not dispatch to the batched kernel")
		}
		if sink != nil {
			pr.K.SetTelemetry(sink)
		}
		var hits batchreplay.HitBits
		// The first block allocates the kernel's per-line arrays; settle it
		// outside the timed region so allocs/op counts the steady state.
		pr.K.AccessBlock(stream[:1], &hits)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(stream); off += batchreplay.BlockSize {
				end := off + batchreplay.BlockSize
				if end > len(stream) {
					end = len(stream)
				}
				pr.K.AccessBlock(stream[off:end], &hits)
			}
		}
		reportPerAccess(b, len(stream))
	}
	b.Run("scalar/telemetry=off", func(b *testing.B) { runScalar(b, nil) })
	b.Run("scalar/telemetry=on", func(b *testing.B) { runScalar(b, &telemetry.Sink{}) })
	b.Run("batched/telemetry=off", func(b *testing.B) { runBatched(b, nil) })
	b.Run("batched/telemetry=on", func(b *testing.B) { runBatched(b, &telemetry.Sink{}) })
}

// BenchmarkGAFitness measures one GA fitness evaluation, the evolve path:
// single-vector GIPPR over every GA stream of the lab, which ga.Env replays
// set by set from each stream's grouped layout. The baselines and layouts
// are settled before timing. It runs on one worker, so ns/record is host
// time per replayed LLC record. probe_free_share is the share of those
// records that lie in the sets' pre-eviction prefixes, which the grouped
// replay moves through with no tag probe (DESIGN.md §16).
func BenchmarkGAFitness(b *testing.B) {
	env := lab().GAEnv().SetWorkers(1)
	env.Fitness(ipv.PaperWIGIPPR)
	records, probeFree := 0, 0
	for _, s := range env.Streams() {
		records += len(s.Records)
		if g := cache.Group(s.Records, env.Config, int(float64(len(s.Records))*env.WarmFrac)); g != nil {
			probeFree += g.ProbeFree()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Fitness(ipv.PaperWIGIPPR)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
	b.ReportMetric(float64(probeFree)/float64(records), "probe_free_share")
}

func BenchmarkPolicyLRU(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewTrueLRU(s, w) })
}

func BenchmarkPolicyPLRU(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewPLRU(s, w) })
}

func BenchmarkPolicyGIPPR(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewGIPPR(s, w, ipv.PaperWIGIPPR) })
}

func BenchmarkPolicyDGIPPR4(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewDGIPPR4(s, w, ipv.PaperWI4DGIPPR) })
}

func BenchmarkPolicyDRRIP(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewDRRIP(s, w) })
}

func BenchmarkPolicyPDP(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewPDP(s, w) })
}

func BenchmarkPolicySHiP(b *testing.B) {
	benchPolicy(b, func(s, w int) cache.Policy { return policy.NewSHiP(s, w) })
}

func BenchmarkBeladyOptimal(b *testing.B) {
	b.ReportAllocs()
	stream := microStream(100_000)
	for i := 0; i < b.N; i++ {
		policy.Optimal(stream, cache.L3Config, 0)
	}
	reportPerAccess(b, len(stream))
}

func BenchmarkWindowModel(b *testing.B) {
	b.ReportAllocs()
	m := cpu.DefaultWindowModel()
	for i := 0; i < b.N; i++ {
		if i%7 == 0 {
			m.StepMiss(5, 230)
		} else {
			m.Step(5, 30)
		}
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	b.ReportAllocs()
	sess, err := New(LLCConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := sess.Hierarchy(NewLRU(LLCConfig().Sets(), LLCConfig().Ways))
	stream := microStream(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(stream[i&(1<<16-1)])
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	w, err := workload.ByName("mcf_like")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Phases[0].Source(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}
