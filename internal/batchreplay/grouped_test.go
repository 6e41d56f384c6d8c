package batchreplay_test

import (
	"fmt"
	"testing"

	"gippr/internal/batchreplay"
	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// replays holds one stream's outcome on each of the three engines: the
// grouped replay, the stream-order kernel and scalar Cache.Access.
type replays struct {
	grouped, kernel, scalar batchreplay.Result
	// Final tree words of the three policies, set by set.
	groupedTrees, kernelTrees, scalarTrees []uint64
}

// replayThree runs stream under vec through all three engines, each with a
// fresh GIPPR policy. ok=false means the stream could not be grouped.
func replayThree(t *testing.T, stream []trace.Record, cfg cache.Config, vec ipv.Vector, warm int) (replays, bool) {
	t.Helper()
	sets := cfg.Sets()
	g := cache.Group(stream, cfg, warm)
	if g == nil {
		return replays{}, false
	}
	pols := [3]*policy.GIPPR{}
	for i := range pols {
		pols[i] = policy.NewGIPPR(sets, cfg.Ways, vec)
	}
	var r replays
	pr, ok := cache.NewPackedReplay(cfg, pols[0])
	if !ok {
		t.Fatalf("%s: kernel did not engage", cfg.Name)
	}
	r.grouped = pr.K.ReplayGrouped(g)
	pr.Finish()
	if pr, ok = cache.NewPackedReplay(cfg, pols[1]); !ok {
		t.Fatalf("%s: kernel did not engage", cfg.Name)
	}
	r.kernel = pr.K.Replay(stream, warm)
	pr.Finish()
	r.scalar.Stats = statsOf(runScalar(stream, cfg, scalarOnly{pols[2]}, warm, nil))
	if warm > len(stream) {
		warm = len(stream)
	}
	r.scalar.Instructions = trace.Instructions(stream[warm:])
	trees := func(p *policy.GIPPR) []uint64 {
		out := make([]uint64, sets)
		for s := range out {
			out[s] = p.Tree(uint32(s)).Bits()
		}
		return out
	}
	r.groupedTrees, r.kernelTrees, r.scalarTrees = trees(pols[0]), trees(pols[1]), trees(pols[2])
	return r, true
}

// check fails the test unless all three engines agree on every counter,
// the measured instructions and every final tree word.
func (r replays) check(t *testing.T, what string) {
	t.Helper()
	if r.grouped != r.kernel || r.grouped != r.scalar {
		t.Fatalf("%s: grouped %+v, kernel %+v, scalar %+v", what, r.grouped, r.kernel, r.scalar)
	}
	for s := range r.groupedTrees {
		if r.groupedTrees[s] != r.kernelTrees[s] || r.groupedTrees[s] != r.scalarTrees[s] {
			t.Fatalf("%s: set %d final tree word grouped %#x, kernel %#x, scalar %#x",
				what, s, r.groupedTrees[s], r.kernelTrees[s], r.scalarTrees[s])
		}
	}
}

// TestGroupedMatchesKernelAndScalar is the grouped replay's differential
// battery: every supported associativity, set counts from one up, every
// sampling shift the geometry allows, warm-up at zero, mid-stream, at the
// end and past it, under PLRU, LIP, mid-climb and random vectors. Grouped
// replay, the stream-order kernel and scalar Cache.Access must agree on
// every counter, the measured instructions and the final tree words.
func TestGroupedMatchesKernelAndScalar(t *testing.T) {
	n := 12_000
	if testing.Short() {
		n = 3_000
	}
	rng := xrand.New(0x6E0)
	for _, ways := range []int{2, 4, 8, 16, 32, 64} {
		for _, sets := range []int{1, 4, 32} {
			for shift := 0; shift <= 3; shift++ {
				cfg := cache.Config{Name: fmt.Sprintf("g%dx%d", sets, ways),
					SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, HitLatency: 30}
				sh, err := cfg.CheckSampleShift(shift)
				if err != nil {
					continue
				}
				cfg.SampleShift = sh
				stream := makeStream(n, cfg, 2.5, rng.Uint64())
				for vi, vec := range vectorsFor(ways, rng) {
					for _, warm := range []int{0, n / 3, n, n + 7} {
						r, ok := replayThree(t, stream, cfg, vec, warm)
						if !ok {
							t.Fatalf("%s: stream not grouped", cfg.Name)
						}
						r.check(t, fmt.Sprintf("%s shift %d vec %d warm %d", cfg.Name, shift, vi, warm))
					}
				}
			}
		}
	}
}

// TestGroupedEdgeStreams covers the streams the random battery rarely
// builds: sets that see no records at all, an all-write stream (every
// eviction writes back), and an empty stream.
func TestGroupedEdgeStreams(t *testing.T) {
	cfg := cache.Config{Name: "edge", SizeBytes: 16 * 8 * 64, Ways: 8, BlockBytes: 64, HitLatency: 30}
	vec := ipv.MidClimb(cfg.Ways)

	// Only even sets: every odd set keeps its initial tree word.
	stream := makeStream(6_000, cfg, 3, 0xE7E)
	for i := range stream {
		stream[i].Addr &^= 64
	}
	r, _ := replayThree(t, stream, cfg, vec, 2_000)
	r.check(t, "even sets only")

	writes := makeStream(6_000, cfg, 3, 0xD1E7)
	for i := range writes {
		writes[i].Write = true
	}
	r, _ = replayThree(t, writes, cfg, vec, 1_000)
	r.check(t, "all writes")
	if r.grouped.Writebacks == 0 || r.grouped.Writes != r.grouped.Accesses {
		t.Fatalf("all-write stream measured %+v; test is vacuous", r.grouped)
	}

	r, _ = replayThree(t, nil, cfg, vec, 0)
	r.check(t, "empty stream")
	if r.grouped != (batchreplay.Result{}) {
		t.Fatalf("empty stream measured %+v", r.grouped)
	}
}

// TestGroupRefusesWideTags pins the 31-bit fallback: one record whose tag
// needs 32 bits makes the whole stream ungroupable, while a tag of exactly
// 31 bits still groups and replays identically.
func TestGroupRefusesWideTags(t *testing.T) {
	cfg := cache.Config{Name: "wide", SizeBytes: 4 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	// 4 sets: block = addr>>6, tag = block>>2, so tag bit 31 is addr bit 39.
	stream := makeStream(2_000, cfg, 2, 0x31)
	stream[500].Addr |= 1<<39 - 1<<8 // tag 1<<31 - 1, the widest that fits
	r, ok := replayThree(t, stream, cfg, ipv.LIP(cfg.Ways), 600)
	if !ok {
		t.Fatal("a 31-bit tag was refused")
	}
	r.check(t, "31-bit tag")
	stream[1500].Addr |= 1 << 39
	if cache.Group(stream, cfg, 600) != nil {
		t.Fatal("a 32-bit tag was grouped")
	}
}

// TestReplayGroupedMisuse pins the panics that keep grouped replay inside
// its exactness argument: no telemetry, a cold kernel, one replay, no
// stream-order access afterwards, and a layout built for the kernel's
// geometry.
func TestReplayGroupedMisuse(t *testing.T) {
	cfg := cache.Config{Name: "m", SizeBytes: 8 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(100, cfg, 2, 0x3)
	g := cache.Group(stream, cfg, 10)
	kernel := func() *batchreplay.Kernel {
		pr, _ := cache.NewPackedReplay(cfg, policy.NewPLRU(cfg.Sets(), cfg.Ways))
		return pr.K
	}
	var hits batchreplay.HitBits
	cases := map[string]func(){
		"telemetry": func() {
			k := kernel()
			k.SetTelemetry(&telemetry.Sink{})
			k.ReplayGrouped(g)
		},
		"warm kernel": func() {
			k := kernel()
			k.AccessBlock(stream[:4], &hits)
			k.ReplayGrouped(g)
		},
		"second replay": func() {
			k := kernel()
			k.ReplayGrouped(g)
			k.ReplayGrouped(g)
		},
		"access after": func() {
			k := kernel()
			k.ReplayGrouped(g)
			k.AccessBlock(stream[:4], &hits)
		},
		"other geometry": func() {
			kernel().ReplayGrouped(batchreplay.Group(stream, 16, 6, 10))
		},
		"other block size": func() {
			kernel().ReplayGrouped(batchreplay.Group(stream, 8, 7, 10))
		},
		"non-pow2 sets": func() { batchreplay.Group(stream, 6, 6, 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
