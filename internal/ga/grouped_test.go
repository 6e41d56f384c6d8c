package ga

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// streamOrder hides a policy's PackedIPV, so cache.NewPackedReplay refuses
// it and Env.replay takes cache.ReplayStream: the stream-order reference
// every grouped-replay result is compared with.
type streamOrder struct{ cache.Policy }

// randomStream draws n records over about twice the test cache's capacity,
// a quarter of them writes.
func randomStream(n int, seed uint64) []trace.Record {
	rng := xrand.New(seed)
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: uint32(rng.Intn(6)) + 1, Addr: rng.Uint64n(2*64*16) * 64, Write: rng.Intn(4) == 0}
	}
	return recs
}

// groupedEnvPair returns two environments over the same streams at the
// given worker count: one scoring GIPPR as ga.Env does (grouped replay),
// one whose policies are wrapped in streamOrder. The "wide" stream has a
// tag past 31 bits, so even the first environment replays it in stream
// order.
func groupedEnvPair(workers int) (grouped, ref *Env) {
	wide := randomStream(8000, 3)
	wide[100].Addr |= 1 << 50
	streams := []Stream{
		{Workload: "thrash", Weight: 1, Records: thrashStream(20000)},
		{Workload: "friendly", Weight: 2, Records: friendlyStream(20000)},
		{Workload: "random", Weight: 1, Records: randomStream(20000, 1)},
		{Workload: "wide", Weight: 0.5, Records: wide},
	}
	mk := func(wrap bool) *Env {
		return NewEnv(gaConfig(), cpu.DefaultLinearModel(), 1.0/3, streams,
			func(sets, ways int) cache.Policy { return policy.NewTrueLRU(sets, ways) },
			func(sets, ways int, v ipv.Vector) cache.Policy {
				p := policy.NewGIPPR(sets, ways, v)
				if wrap {
					return streamOrder{p}
				}
				return p
			}).SetWorkers(workers)
	}
	return mk(false), mk(true)
}

// TestGroupedFitnessBitIdentical holds every search entry point to the
// stream-order reference: RandomSearch, Evolve, HillClimb,
// SelectComplementary and a Subset view must return bit-identical fitness
// and choices, at 1 and 8 workers.
func TestGroupedFitnessBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		e, ref := groupedEnvPair(workers)

		a, b := RandomSearch(e, 12, 0x5EA), RandomSearch(ref, 12, 0x5EA)
		for i := range a {
			if a[i].Fitness != b[i].Fitness || !a[i].Vector.Equal(b[i].Vector) {
				t.Fatalf("workers %d: random sample %d: grouped (%v, %v) != stream order (%v, %v)",
					workers, i, a[i].Vector, a[i].Fitness, b[i].Vector, b[i].Fitness)
			}
		}

		cfg := DefaultConfig(11)
		cfg.Population, cfg.Generations = 6, 2
		bestA, fitA, histA := Evolve(e, cfg)
		bestB, fitB, histB := Evolve(ref, cfg)
		if !bestA.Equal(bestB) || fitA != fitB || len(histA) != len(histB) {
			t.Fatalf("workers %d: Evolve grouped (%v, %v) != stream order (%v, %v)", workers, bestA, fitA, bestB, fitB)
		}
		for i := range histA {
			if histA[i] != histB[i] {
				t.Fatalf("workers %d: generation %d best %v != %v", workers, i, histA[i], histB[i])
			}
		}

		hA, hfA := HillClimb(e, ipv.LIP(16), 1)
		hB, hfB := HillClimb(ref, ipv.LIP(16), 1)
		if !hA.Equal(hB) || hfA != hfB {
			t.Fatalf("workers %d: HillClimb grouped (%v, %v) != stream order (%v, %v)", workers, hA, hfA, hB, hfB)
		}

		pool := []ipv.Vector{ipv.LRU(16), ipv.LIP(16), ipv.PaperWIGIPPR, ipv.MidClimb(16)}
		sA, sB := SelectComplementary(e, pool, 2), SelectComplementary(ref, pool, 2)
		for i := range sA {
			if !sA[i].Equal(sB[i]) {
				t.Fatalf("workers %d: complementary choice %d: %v != %v", workers, i, sA[i], sB[i])
			}
		}

		keep := func(w string) bool { return w != "friendly" }
		subA, subB := e.Subset(keep), ref.Subset(keep)
		for _, v := range pool {
			pa, pb := subA.PerStream(v), subB.PerStream(v)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("workers %d: subset stream %d under %v: %v != %v", workers, i, v, pa[i], pb[i])
				}
			}
			if subA.Fitness(v) != subB.Fitness(v) {
				t.Fatalf("workers %d: subset fitness under %v differs", workers, v)
			}
		}

		// The comparison is only meaningful if the two sides took
		// different paths: grouped layouts for every stream but the wide
		// one, and none at all for the wrapped policies.
		for i, g := range e.grouped {
			if (g == nil) != (e.streams[i].Workload == "wide") {
				t.Fatalf("stream %s: layout %v", e.streams[i].Workload, g != nil)
			}
		}
		if ref.grouped != nil {
			t.Fatal("non-packable policies built grouped layouts")
		}
	}
}

// TestSubsetSharesLayouts pins that a Subset view reuses its parent's
// layouts rather than building its own.
func TestSubsetSharesLayouts(t *testing.T) {
	e, _ := groupedEnvPair(2)
	sub := e.Subset(func(w string) bool { return w == "random" || w == "thrash" })
	if e.grouped != nil {
		t.Fatal("Subset built the parent's layouts before any replay needed them")
	}
	got, parent := sub.layouts(), e.grouped
	if len(got) != 2 || got[0] != parent[0] || got[1] != parent[2] || got[0] == nil {
		t.Fatal("subset does not share the parent's layouts")
	}
}
