// Package ga implements the paper's IPV search machinery (Section 4):
// uniformly random design-space sampling (Figure 1), the genetic algorithm
// that evolves insertion/promotion vectors (Section 4.2), hill-climbing
// refinement (Section 2.6), and greedy selection of complementary vector
// sets for 2- and 4-vector DGIPPR. Fitness is the paper's Section 4.3
// function: mean estimated speedup over LRU on LLC-filtered access streams
// under a linear CPI model.
package ga

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"gippr/internal/batchreplay"
	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/ipv"
	"gippr/internal/parallel"
	"gippr/internal/stats"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// Stream is one LLC-filtered access stream with its SimPoint-style weight.
type Stream struct {
	Workload string
	Weight   float64
	Records  []trace.Record
}

// Env is a fitness-evaluation environment: the LLC geometry, the streams,
// the CPI model, and the policy family being searched (GIPPR by default;
// the Section 2 proof of concept passes a GIPLR constructor instead).
//
// Env is safe for concurrent use: the streams are immutable, the policy
// constructors build fresh unshared instances, and the lazily computed LRU
// baselines and set-grouped stream layouts are each guarded by a sync.Once.
// Every evaluation entry point (Fitness,
// PerStream, RandomSearch, Evolve, SelectComplementary) fans work out over
// Workers goroutines while drawing all random numbers serially, so results
// are bit-identical for every worker count.
type Env struct {
	Config cache.Config
	Model  cpu.LinearModel
	// WarmFrac is the fraction of each stream used to warm the cache
	// before misses are counted (the paper warms 500M of 1.5B
	// instructions).
	WarmFrac float64
	// NewPolicy builds the policy under search for a candidate vector.
	NewPolicy func(sets, ways int, v ipv.Vector) cache.Policy
	// Workers bounds the evaluation fan-out; values below 1 mean GOMAXPROCS.
	Workers int

	streams []Stream
	newLRU  func(sets, ways int) cache.Policy
	// sampleFactor scales sampled-set hit/miss counts back to full-cache
	// magnitudes when Config samples sets (Config.SampleShift > 0); it is
	// exactly 1 at full fidelity, where the unscaled CPI path is used so
	// results stay bit-identical to pre-sampling builds.
	sampleFactor float64
	// baseline CPI per stream under true LRU, computed once on first use so
	// the construction cost lands under the caller's chosen Workers.
	baseOnce sync.Once
	baseCPI  []float64
	// grouped holds each stream's set-grouped layout (nil for a stream that
	// cannot be grouped), built once on the first replay of a packable
	// policy, so an environment that never scores one never pays for it. A
	// Subset view takes its layouts from parent: those of parent's streams
	// parentIdx.
	groupOnce sync.Once
	grouped   []*batchreplay.Grouped
	parent    *Env
	parentIdx []int
}

// NewEnv builds a fitness environment. newLRU builds the baseline policy
// (true LRU in the paper); the per-stream baseline CPIs are computed in
// parallel on first use.
func NewEnv(cfg cache.Config, model cpu.LinearModel, warmFrac float64,
	streams []Stream,
	newLRU func(sets, ways int) cache.Policy,
	newPolicy func(sets, ways int, v ipv.Vector) cache.Policy) *Env {
	if warmFrac < 0 || warmFrac >= 1 {
		panic("ga: WarmFrac must be in [0,1)")
	}
	factor := 1.0
	if cfg.SampleShift != 0 {
		factor = cfg.SampleFactor()
	}
	return &Env{
		Config:       cfg,
		Model:        model,
		WarmFrac:     warmFrac,
		NewPolicy:    newPolicy,
		Workers:      parallel.DefaultWorkers(),
		streams:      streams,
		newLRU:       newLRU,
		sampleFactor: factor,
	}
}

// cpi maps replay stats to an estimated CPI, scaling the sampled hit and
// miss counts back up when the environment's geometry samples sets. The
// full-fidelity path keeps the historical operation order so fitness values
// are bit-identical to pre-sampling builds.
func (e *Env) cpi(rs cache.ReplayStats) float64 {
	if e.sampleFactor != 1 {
		return e.Model.SampledCPI(rs, e.sampleFactor)
	}
	return e.Model.CPIFromReplay(rs)
}

// SetWorkers sets the evaluation fan-out width (values below 1 mean
// GOMAXPROCS) and returns the environment for chaining.
func (e *Env) SetWorkers(n int) *Env {
	e.Workers = parallel.Clamp(n)
	return e
}

// baselines returns the per-stream LRU baseline CPIs, computing them in
// parallel exactly once.
func (e *Env) baselines() []float64 {
	e.baseOnce.Do(func() {
		base := make([]float64, len(e.streams))
		sets := e.Config.Sets()
		parallel.For(e.Workers, len(e.streams), func(i int) {
			s := e.streams[i]
			rs := cache.ReplayStream(s.Records, e.Config, e.newLRU(sets, e.Config.Ways), e.warm(len(s.Records)))
			base[i] = e.cpi(rs)
		})
		e.baseCPI = base
	})
	return e.baseCPI
}

// layouts returns the per-stream set-grouped layouts, building them in
// parallel exactly once.
func (e *Env) layouts() []*batchreplay.Grouped {
	e.groupOnce.Do(func() {
		if e.parent != nil {
			all := e.parent.layouts()
			for _, i := range e.parentIdx {
				e.grouped = append(e.grouped, all[i])
			}
			return
		}
		g := make([]*batchreplay.Grouped, len(e.streams))
		parallel.For(e.Workers, len(e.streams), func(i int) {
			recs := e.streams[i].Records
			g[i] = cache.Group(recs, e.Config, e.warm(len(recs)))
		})
		e.grouped = g
	})
	return e.grouped
}

func (e *Env) warm(n int) int { return int(float64(n) * e.WarmFrac) }

// replay scores stream i under pol. A policy the batched kernel models
// (cache.NewPackedReplay engages) replays the stream's set-grouped layout,
// which gives the same ReplayStats as replaying the stream in order; any
// other policy, and a stream that could not be grouped, takes the
// stream-order path.
func (e *Env) replay(i int, pol cache.Policy) cache.ReplayStats {
	recs := e.streams[i].Records
	pr, ok := cache.NewPackedReplay(e.Config, pol)
	if !ok {
		return cache.ReplayStream(recs, e.Config, pol, e.warm(len(recs)))
	}
	if g := e.layouts()[i]; g != nil {
		return pr.ReplayGrouped(g)
	}
	return pr.Replay(recs, e.warm(len(recs)))
}

// Streams returns the environment's streams (shared; do not mutate).
func (e *Env) Streams() []Stream { return e.streams }

// Subset returns a new Env restricted to streams whose workload passes
// keep, re-using the precomputed baselines and sharing the parent's
// set-grouped layouts. This implements the paper's workload-neutral (WNk)
// cross-validation: evolve on the complement of the held-out workloads.
func (e *Env) Subset(keep func(workload string) bool) *Env {
	base := e.baselines()
	sub := &Env{
		Config:       e.Config,
		Model:        e.Model,
		WarmFrac:     e.WarmFrac,
		NewPolicy:    e.NewPolicy,
		Workers:      e.Workers,
		newLRU:       e.newLRU,
		sampleFactor: e.sampleFactor,
		parent:       e,
	}
	for i, s := range e.streams {
		if keep(s.Workload) {
			sub.streams = append(sub.streams, s)
			sub.baseCPI = append(sub.baseCPI, base[i])
			sub.parentIdx = append(sub.parentIdx, i)
		}
	}
	if len(sub.streams) == 0 {
		panic("ga: Subset kept no streams")
	}
	sub.baseOnce.Do(func() {}) // baselines inherited, never recomputed
	return sub
}

// PerStream returns each stream's estimated speedup over LRU for vector v.
// The streams are replayed in parallel on e.Workers goroutines; each writes
// only its own slot, so the result is independent of scheduling.
func (e *Env) PerStream(v ipv.Vector) []float64 {
	base := e.baselines()
	sets := e.Config.Sets()
	out := make([]float64, len(e.streams))
	parallel.For(e.Workers, len(e.streams), func(i int) {
		rs := e.replay(i, e.NewPolicy(sets, e.Config.Ways, v))
		out[i] = base[i] / e.cpi(rs)
	})
	return out
}

// Fitness is the paper's fitness function: the weighted arithmetic-mean
// estimated speedup over LRU across all streams.
func (e *Env) Fitness(v ipv.Vector) float64 {
	per := e.PerStream(v)
	weights := make([]float64, len(e.streams))
	for i, s := range e.streams {
		weights[i] = s.Weight
	}
	return stats.WeightedMean(per, weights)
}

// Scored pairs a vector with its fitness. The JSON tags make Scored (and
// State, which embeds a population of them) checkpointable: float64 values
// survive a JSON round trip bit-identically, which the resume determinism
// guarantee depends on.
type Scored struct {
	Vector  ipv.Vector `json:"vector"`
	Fitness float64    `json:"fitness"`
}

// RandomSearch evaluates n uniformly random IPVs (the paper's Figure 1
// exploration: 15,000 random 17-entry vectors) and returns them sorted by
// ascending fitness, ready to plot as the sorted speedup curve. All vectors
// are drawn serially from the seeded generator first, then scored in
// parallel — fitness evaluation consumes no randomness, so the outcome is
// bit-identical to the serial engine at any worker count.
func RandomSearch(e *Env, n int, seed uint64) []Scored {
	out, _ := RandomSearchCtx(context.Background(), e, n, seed) // Background never cancels
	return out
}

// RandomSearchCtx is RandomSearch with cooperative cancellation: on
// cancellation, in-flight evaluations drain and it returns (nil, ctx.Err())
// — a partially scored sample has no meaningful sorted curve.
func RandomSearchCtx(ctx context.Context, e *Env, n int, seed uint64) ([]Scored, error) {
	return RandomSearchProgressCtx(ctx, e, n, seed, nil)
}

// RandomSearchProgressCtx is RandomSearchCtx with a per-sample progress
// callback, invoked from worker goroutines as each evaluation completes.
// onSample must be safe for concurrent use (an atomic gauge is; most
// callers pass runctx.Progress.Add via a closure). A nil callback makes it
// identical to RandomSearchCtx.
func RandomSearchProgressCtx(ctx context.Context, e *Env, n int, seed uint64, onSample func()) ([]Scored, error) {
	rng := xrand.New(seed)
	k := e.Config.Ways
	out := make([]Scored, n)
	for i := range out {
		v := make(ipv.Vector, k+1)
		for j := range v {
			v[j] = rng.Intn(k)
		}
		out[i] = Scored{Vector: v}
	}
	err := parallel.ForCtx(ctx, e.Workers, n, func(i int) {
		out[i].Fitness = e.Fitness(out[i].Vector)
		if onSample != nil {
			onSample()
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Fitness < out[b].Fitness })
	return out, nil
}

// Config parameterizes Evolve. The defaults follow the paper's operators:
// one-point crossover and a 5% chance of mutating one randomly chosen
// element per offspring (Section 4.2), at laptop-scale population sizes.
type Config struct {
	Population  int
	Generations int
	// Elite individuals are copied unchanged into the next generation.
	Elite int
	// TournamentSize controls selection pressure.
	TournamentSize int
	// MutationProb is the per-offspring probability of one random-element
	// mutation (the paper uses 0.05).
	MutationProb float64
	Seed         uint64
	// Seeds are vectors injected into the initial population (e.g. LRU,
	// LIP, previously evolved vectors — the paper seeds its pgapack run
	// with earlier GA output).
	Seeds []ipv.Vector
	// OnGeneration, if non-nil, is called after each generation with the
	// generation index and the best individual so far.
	OnGeneration func(gen int, best Scored)
	// OnState, if non-nil, is called at every generation boundary (after
	// the initial population is evaluated, then after each completed
	// generation) with a self-contained resumable snapshot. Callers persist
	// it (see internal/checkpoint) to make long runs crash-safe.
	OnState func(st State)
	// Resume, if non-nil, restarts Evolve from a snapshot previously
	// handed to OnState instead of initializing a fresh population. The
	// resumed run draws the identical random sequence the uninterrupted
	// run would have, so its result is bit-identical.
	Resume *State
}

// State is a resumable snapshot of Evolve at a generation boundary: the
// scored population (sorted descending), the serialized RNG state as of
// that boundary, and the best-fitness history so far. It is pure data —
// JSON-serializable, no hidden pointers into the running GA.
type State struct {
	// Generation is the number of fully completed generations; the resumed
	// run continues with this generation index.
	Generation int `json:"generation"`
	// RNG is the xrand.RNG state after the last serial draw of the
	// completed generation (selection, crossover and mutation all draw
	// serially, so this single word captures the whole random trajectory).
	RNG        uint64    `json:"rng"`
	Population []Scored  `json:"population"`
	History    []float64 `json:"history"`
}

// snapshot deep-copies the live population into a State so later
// generations (which re-sort and replace slices) can never alias a
// checkpoint the caller is still holding.
func snapshot(gen int, rng *xrand.RNG, pop []Scored, history []float64) State {
	p := make([]Scored, len(pop))
	for i, s := range pop {
		p[i] = Scored{Vector: s.Vector.Clone(), Fitness: s.Fitness}
	}
	return State{
		Generation: gen,
		RNG:        rng.State(),
		Population: p,
		History:    append([]float64(nil), history...),
	}
}

// validate checks a snapshot against the configuration and associativity of
// the run trying to resume from it. Checkpoint files are external input, so
// every vector is re-validated rather than trusted.
func (st *State) validate(cfg Config, k int) error {
	if len(st.Population) != cfg.Population {
		return fmt.Errorf("ga: resume state has population %d, config wants %d",
			len(st.Population), cfg.Population)
	}
	if st.Generation < 0 || st.Generation > cfg.Generations {
		return fmt.Errorf("ga: resume state at generation %d, config runs %d",
			st.Generation, cfg.Generations)
	}
	if len(st.History) != st.Generation {
		return fmt.Errorf("ga: resume state history has %d entries for %d completed generations",
			len(st.History), st.Generation)
	}
	for i, s := range st.Population {
		if err := s.Vector.Validate(); err != nil {
			return fmt.Errorf("ga: resume state individual %d: %w", i, err)
		}
		if s.Vector.K() != k {
			return fmt.Errorf("ga: resume state individual %d is for %d ways, environment has %d",
				i, s.Vector.K(), k)
		}
	}
	return nil
}

// DefaultConfig returns a small but effective configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Population:     24,
		Generations:    10,
		Elite:          2,
		TournamentSize: 3,
		MutationProb:   0.05,
		Seed:           seed,
	}
}

func (c Config) validate() error {
	if c.Population < 2 {
		return fmt.Errorf("ga: population %d too small", c.Population)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: need at least one generation")
	}
	if c.Elite < 0 || c.Elite >= c.Population {
		return fmt.Errorf("ga: elite %d out of range for population %d", c.Elite, c.Population)
	}
	if c.TournamentSize < 1 {
		return fmt.Errorf("ga: tournament size %d too small", c.TournamentSize)
	}
	return nil
}

// Evolve runs the genetic algorithm and returns the best vector found, its
// fitness, and the best-fitness history per generation. It panics on an
// invalid configuration or resume state; for cooperative cancellation use
// EvolveCtx.
func Evolve(e *Env, cfg Config) (ipv.Vector, float64, []float64) {
	best, fit, history, err := EvolveCtx(context.Background(), e, cfg)
	if err != nil {
		// Background is never cancelled, so the only possible errors are
		// configuration or resume-state problems — programming errors under
		// this legacy signature.
		panic(err)
	}
	return best, fit, history
}

// EvolveCtx is Evolve with cooperative cancellation and checkpoint/resume.
//
// Cancellation is cell-granular: when ctx is cancelled, in-flight fitness
// evaluations drain, the partially evaluated generation is discarded —
// truncating the run, never reordering a completed generation — and
// EvolveCtx returns the best individual of the last completed generation
// along with ctx.Err(). The snapshot handed to cfg.OnState at that
// generation's boundary resumes the run (via cfg.Resume) so that it
// produces results bit-identical to an uninterrupted run at any worker
// count: selection, crossover and mutation randomness is drawn serially and
// its generator state is part of the snapshot.
func EvolveCtx(ctx context.Context, e *Env, cfg Config) (ipv.Vector, float64, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, nil, err
	}
	rng := xrand.New(cfg.Seed)
	k := e.Config.Ways

	var pop []Scored
	history := make([]float64, 0, cfg.Generations)
	startGen := 0

	emit := func(completed int) {
		if cfg.OnState != nil {
			cfg.OnState(snapshot(completed, rng, pop, history))
		}
	}

	if cfg.Resume != nil {
		if err := cfg.Resume.validate(cfg, k); err != nil {
			return nil, 0, nil, err
		}
		// Work on copies: the caller may hold (or re-use) the snapshot.
		pop = make([]Scored, len(cfg.Resume.Population))
		for i, s := range cfg.Resume.Population {
			pop[i] = Scored{Vector: s.Vector.Clone(), Fitness: s.Fitness}
		}
		history = append(history, cfg.Resume.History...)
		startGen = cfg.Resume.Generation
		rng.SetState(cfg.Resume.RNG)
	} else {
		randomVec := func() ipv.Vector {
			v := make(ipv.Vector, k+1)
			for j := range v {
				v[j] = rng.Intn(k)
			}
			return v
		}
		pop = make([]Scored, 0, cfg.Population)
		for _, s := range cfg.Seeds {
			if len(pop) == cfg.Population {
				break
			}
			if s.K() != k {
				panic("ga: seed vector associativity mismatch")
			}
			pop = append(pop, Scored{Vector: s.Clone()})
		}
		for len(pop) < cfg.Population {
			// Skip degenerate vectors that can never promote to MRU
			// (footnote 1): they waste evaluations.
			v := randomVec()
			for !v.ReachesMRU() {
				v = randomVec()
			}
			pop = append(pop, Scored{Vector: v})
		}
		err := parallel.ForCtx(ctx, e.Workers, len(pop), func(i int) {
			pop[i].Fitness = e.Fitness(pop[i].Vector)
		})
		if err != nil {
			// Cancelled before the first checkpointable boundary: there is
			// no partial progress worth returning.
			return nil, 0, nil, err
		}
		sortDesc(pop)
		emit(0)
	}

	tournament := func() ipv.Vector {
		best := rng.Intn(len(pop))
		for t := 1; t < cfg.TournamentSize; t++ {
			c := rng.Intn(len(pop))
			if pop[c].Fitness > pop[best].Fitness {
				best = c
			}
		}
		return pop[best].Vector
	}

	for gen := startGen; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return pop[0].Vector.Clone(), pop[0].Fitness, history, err
		}
		// Selection, crossover and mutation draw from the seeded generator
		// and depend only on the previous generation's fitnesses, so the
		// whole offspring cohort is produced serially first; the fitness
		// evaluations — the expensive part, and randomness-free — then run
		// in parallel. The generator's call sequence is exactly the serial
		// engine's, so evolution is bit-identical at any worker count.
		next := make([]Scored, 0, cfg.Population)
		for i := 0; i < cfg.Elite; i++ {
			next = append(next, pop[i])
		}
		for len(next) < cfg.Population {
			a, b := tournament(), tournament()
			child := crossover(a, b, rng)
			if rng.Bool(cfg.MutationProb) {
				child[rng.Intn(len(child))] = rng.Intn(k)
			}
			next = append(next, Scored{Vector: child})
		}
		err := parallel.ForCtx(ctx, e.Workers, len(next)-cfg.Elite, func(i int) {
			s := &next[cfg.Elite+i]
			s.Fitness = e.Fitness(s.Vector)
		})
		if err != nil {
			// Drop the partially evaluated cohort; the last completed
			// generation (already checkpointed via OnState) stands.
			return pop[0].Vector.Clone(), pop[0].Fitness, history, err
		}
		pop = next
		sortDesc(pop)
		history = append(history, pop[0].Fitness)
		if cfg.OnGeneration != nil {
			cfg.OnGeneration(gen, pop[0])
		}
		emit(gen + 1)
	}
	return pop[0].Vector, pop[0].Fitness, history, nil
}

// crossover is the paper's one-point crossover: elements 0..c from a,
// c+1..k from b, with c chosen uniformly.
func crossover(a, b ipv.Vector, rng *xrand.RNG) ipv.Vector {
	child := a.Clone()
	c := rng.Intn(len(a))
	copy(child[c+1:], b[c+1:])
	return child
}

func sortDesc(pop []Scored) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].Fitness > pop[j].Fitness })
}

// HillClimb refines v by repeatedly trying every single-element change and
// keeping the best improvement, stopping after maxRounds rounds or at a
// local optimum (the Section 2.6 refinement). It returns the refined vector
// and its fitness. The accept chain is greedy and order-dependent, so the
// candidate loop stays serial; parallelism comes from each Fitness call
// fanning its streams out over e.Workers.
func HillClimb(e *Env, v ipv.Vector, maxRounds int) (ipv.Vector, float64) {
	best, fit, _ := HillClimbCtx(context.Background(), e, v, maxRounds) // Background never cancels
	return best, fit
}

// HillClimbCtx is HillClimb with cooperative cancellation, checked before
// each candidate evaluation. On cancellation it returns the best vector
// accepted so far with ctx.Err(): hill climbing is an anytime algorithm, so
// a truncated climb is still a valid (just less refined) result.
func HillClimbCtx(ctx context.Context, e *Env, v ipv.Vector, maxRounds int) (ipv.Vector, float64, error) {
	best := v.Clone()
	bestFit := e.Fitness(best)
	k := e.Config.Ways
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i := range best {
			orig := best[i]
			for val := 0; val < k; val++ {
				if val == orig {
					continue
				}
				if err := ctx.Err(); err != nil {
					// best currently holds the last accepted state: the
					// trial assignment below has not happened yet.
					best[i] = orig
					return best, bestFit, err
				}
				best[i] = val
				if f := e.Fitness(best); f > bestFit {
					bestFit = f
					orig = val
					improved = true
				} else {
					best[i] = orig
				}
			}
			best[i] = orig
		}
		if !improved {
			break
		}
	}
	return best, bestFit, nil
}

// SelectComplementary greedily picks setSize vectors from pool so that the
// oracle-best-per-stream mean speedup of the chosen set is maximized: the
// offline idealization of what set-dueling can exploit at run time. This is
// how the 2- and 4-vector DGIPPR sets are assembled from independently
// evolved vectors.
func SelectComplementary(e *Env, pool []ipv.Vector, setSize int) []ipv.Vector {
	out, _ := SelectComplementaryCtx(context.Background(), e, pool, setSize) // Background never cancels
	return out
}

// SelectComplementaryCtx is SelectComplementary with cooperative
// cancellation of the per-vector evaluation fan-out; the greedy selection
// itself reads precomputed scores and is negligible. On cancellation it
// returns (nil, ctx.Err()).
func SelectComplementaryCtx(ctx context.Context, e *Env, pool []ipv.Vector, setSize int) ([]ipv.Vector, error) {
	if setSize <= 0 || len(pool) == 0 {
		panic("ga: SelectComplementary needs a pool and positive set size")
	}
	per := make([][]float64, len(pool))
	e.baselines() // settle the baseline before fanning out
	if err := parallel.ForCtx(ctx, e.Workers, len(pool), func(i int) { per[i] = e.PerStream(pool[i]) }); err != nil {
		return nil, err
	}
	weights := make([]float64, len(e.streams))
	for i, s := range e.streams {
		weights[i] = s.Weight
	}
	chosen := []int{}
	bestOf := make([]float64, len(e.streams)) // oracle speedup of chosen set
	for len(chosen) < setSize && len(chosen) < len(pool) {
		bestIdx, bestScore := -1, -1.0
		for i := range pool {
			if contains(chosen, i) {
				continue
			}
			cand := make([]float64, len(bestOf))
			for s := range cand {
				cand[s] = per[i][s]
				if len(chosen) > 0 && bestOf[s] > cand[s] {
					cand[s] = bestOf[s]
				}
			}
			score := stats.WeightedMean(cand, weights)
			if score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		for s := range bestOf {
			if v := per[bestIdx][s]; len(chosen) == 0 || v > bestOf[s] {
				bestOf[s] = v
			}
		}
		chosen = append(chosen, bestIdx)
	}
	out := make([]ipv.Vector, len(chosen))
	for i, idx := range chosen {
		out[i] = pool[idx].Clone()
	}
	return out, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
