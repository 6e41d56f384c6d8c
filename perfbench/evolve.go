package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gippr/internal/cache"
	"gippr/internal/experiments"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// evolve is the gippr-evolve / Figure 1 path: single-vector GIPPR fitness
// on the batched kernel with the linear CPI model. Each iteration runs
// cfg.SearchBatches random-search requests of cfg.RandomIPVs vectors and a
// short GA, all seeded from the benchmark seed. A job is one random-search
// request; a hit is a repeat Lab.GAEnv on the lab whose streams are
// already captured.
func evolve(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	scale := scaleOf(cfg)
	var lab *experiments.Lab
	var env *ga.Env
	for i := 0; i < cfg.SetupReps; i++ {
		lab, env = nil, nil
		runtime.GC()
		id := tr.begin("setup", 0, "bench.setup")
		t := time.Now()
		lab = experiments.NewLab(scale).SetWorkers(cfg.Workers)
		env = lab.GAEnv()
		// The first fitness call computes the per-stream LRU baselines,
		// which every later call reuses.
		env.Fitness(ipv.LRU(lab.Cfg.Ways))
		out.setup = append(out.setup, time.Since(t))
		tr.end(id)
	}

	// Every candidate evaluation builds one policy per stream, so counting
	// constructions counts evaluations exactly.
	var built atomic.Int64
	newPolicy := env.NewPolicy
	env.NewPolicy = func(sets, ways int, v ipv.Vector) cache.Policy {
		built.Add(1)
		return newPolicy(sets, ways, v)
	}
	var streamInstr uint64
	for _, st := range env.Streams() {
		streamInstr += trace.Instructions(st.Records)
	}
	nStreams := int64(len(env.Streams()))

	type iteration struct {
		scored []ga.Scored
		best   ipv.Vector
		fit    float64
	}
	var last iteration
	start := time.Now()
	for it := 0; it == 0 || !elapsed(start, cfg); it++ {
		run := fmt.Sprintf("iter-%d", it)
		seed := xrand.Mix(cfg.Seed, uint64(it)+1)
		root := tr.begin(run, 0, "bench.iteration")
		b0 := built.Load()
		a0 := allocBytes()
		t0 := time.Now()

		var scored []ga.Scored
		for b := 0; b < cfg.SearchBatches; b++ {
			id := tr.begin(run, root, "ga.RandomSearch")
			tb := time.Now()
			scored = append(scored, ga.RandomSearch(env, cfg.RandomIPVs, xrand.Mix(seed, uint64(b)))...)
			out.jobs = append(out.jobs, time.Since(tb))
			tr.end(id)
		}

		id := tr.begin(run, root, "ga.Evolve")
		best, fit, history := ga.Evolve(env, ga.Config{
			Population: cfg.GAPopulation, Generations: cfg.GAGenerations,
			Elite: gaElite, TournamentSize: 3, MutationProb: 0.05, Seed: seed,
		})
		tr.end(id)
		d := time.Since(t0)
		out.allocs = append(out.allocs, allocBytes()-a0)
		evals := (built.Load() - b0) / nStreams
		out.units = append(out.units, unit{d: d, instr: uint64(evals) * streamInstr, done: int(evals)})

		dg := newDigest()
		for _, s := range scored {
			dg.add(s.Vector.String(), g17(s.Fitness))
		}
		dg.add(best.String(), g17(fit))
		for _, h := range history {
			dg.add(g17(h))
		}
		if it == 0 {
			out.digest = dg.sum()
		}
		// The GA's own outputs must be consistent: the reported best is the
		// last generation's best, and every evaluation replayed each stream.
		wantEvals := int64(cfg.SearchBatches*cfg.RandomIPVs + cfg.GAPopulation + cfg.GAGenerations*(cfg.GAPopulation-gaElite))
		out.gate.check(len(history) == cfg.GAGenerations && history[len(history)-1] == fit &&
			built.Load()-b0 == wantEvals*nStreams, len(scored)+1,
			"%s: best fitness %v, history %v, %d policy constructions for %d evaluations over %d streams",
			run, fit, history, built.Load()-b0, wantEvals, nStreams)

		// A single warm GAEnv takes microseconds, below the host's
		// scheduling jitter, so each hit sample is the mean of a batch.
		runtime.GC()
		for j := 0; j < hitsPerPass/4; j++ {
			id := tr.begin(run, root, "experiments.Lab.GAEnv.memo")
			t := time.Now()
			for k := 0; k < gaEnvBatch; k++ {
				lab.GAEnv()
			}
			out.hits = append(out.hits, time.Since(t)/gaEnvBatch)
			tr.end(id)
		}
		tr.end(root)
		last = iteration{scored: scored, best: best, fit: fit}
	}
	out.heapLive = liveHeap()

	// Engine identities: the GA's reported best fitness, and a sampled
	// random-search score computed on parallel workers, must both equal a
	// serial re-evaluation of the same vector.
	env.SetWorkers(1)
	pick := last.scored[xrand.New(cfg.Seed).Intn(len(last.scored))]
	got := env.Fitness(pick.Vector)
	out.gate.check(got == pick.Fitness, 1, "identity: random-search fitness %v of %v, serial re-evaluation %v", pick.Fitness, pick.Vector, got)
	got = env.Fitness(last.best)
	out.gate.check(got == last.fit, 1, "identity: Evolve best fitness %v of %v, serial re-evaluation %v", last.fit, last.best, got)
	env.SetWorkers(cfg.Workers)

	out.layer["batchreplay.access_share"] = packedShare(lab, []experiments.Spec{experiments.SpecForIPV("GIPPR*", last.best)})
	return out, nil
}

// gaEnvBatch is how many repeat Lab.GAEnv calls one hit sample averages:
// a few milliseconds' worth, so that one scheduling delay is a small part
// of a sample.
const gaEnvBatch = 400

// gaElite is how many of the best individuals survive each generation.
const gaElite = 2

// randomVector draws a uniformly random insertion/promotion vector for a
// k-way set, as the random search does.
func randomVector(rng *xrand.RNG, k int) ipv.Vector {
	v := make(ipv.Vector, k+1)
	for j := range v {
		v[j] = rng.Intn(k)
	}
	return v
}
