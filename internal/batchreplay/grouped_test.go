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

// setStream returns n records for set set of cfg that cycle through
// distinct blocks in a seeded random order: the first distinct records
// touch blocks 0..distinct-1 in turn, the rest pick among them at random.
// Every third record writes.
func setStream(n, set, distinct int, cfg cache.Config, seed uint64) []trace.Record {
	rng := xrand.New(seed)
	recs := make([]trace.Record, n)
	for i := range recs {
		tag := i
		if i >= distinct {
			tag = rng.Intn(distinct)
		}
		recs[i] = trace.Record{
			Addr:  uint64(tag*cfg.Sets()+set) * uint64(cfg.BlockBytes),
			Gap:   uint32(rng.Intn(8)) + 1,
			Write: rng.Intn(3) == 0,
		}
	}
	return recs
}

// TestGroupedPrefixBoundaries holds the pre-eviction prefix to the other
// engines where it ends: in a set that touches exactly ways distinct blocks
// (the prefix is the whole set) and in one that touches ways+1 (it ends at
// the first touch of the last block), with the warm boundary before, at and
// after the prefix's end, at every supported associativity, at full
// fidelity and sampled.
func TestGroupedPrefixBoundaries(t *testing.T) {
	for _, ways := range []int{2, 4, 16, 64} {
		cfg := cache.Config{Name: fmt.Sprintf("p4x%d", ways), SizeBytes: 4 * ways * 64, Ways: ways,
			BlockBytes: 64, HitLatency: 30}
		n := 8 * ways
		// Set 1 never evicts; set 2 evicts once its block ways+1 arrives,
		// at record ways of its own records.
		full := setStream(n, 1, ways, cfg, uint64(ways))
		over := setStream(n, 2, ways+1, cfg, uint64(ways)+1)
		for _, vec := range []ipv.Vector{ipv.LRU(ways), ipv.LIP(ways), ipv.MidClimb(ways)} {
			for _, warm := range []int{0, ways - 1, ways, ways + 1, n} {
				for _, shift := range []int{0, 1} {
					c := cfg
					if shift > 0 {
						sh, err := c.CheckSampleShift(shift)
						if err != nil {
							t.Fatal(err)
						}
						c.SampleShift = sh
					}
					what := fmt.Sprintf("%s vec %v warm %d shift %d", c.Name, vec, warm, shift)
					if g := cache.Group(full, c, warm); g.ProbeFree() != len(full) {
						t.Fatalf("%s: ways distinct blocks: %d of %d records probe-free", what, g.ProbeFree(), len(full))
					}
					r, _ := replayThree(t, full, c, vec, warm)
					r.check(t, what+" (ways distinct)")
					if r.grouped.Evictions != 0 {
						t.Fatalf("%s: a set of ways distinct blocks evicted: %+v", what, r.grouped)
					}
					if g := cache.Group(over, c, warm); g.ProbeFree() != ways {
						t.Fatalf("%s: ways+1 distinct blocks: %d records probe-free, want %d", what, g.ProbeFree(), ways)
					}
					r, _ = replayThree(t, over, c, vec, warm)
					r.check(t, what+" (ways+1 distinct)")
					both := append(append([]trace.Record(nil), full...), over...)
					r, _ = replayThree(t, both, c, vec, warm)
					r.check(t, what+" (both sets)")
				}
			}
		}
	}
}

// TestGroupedPrefixWriteBack pins the dirty mask a prefix hands to the
// rest of its set: a block written on its first touch, read after that, is
// written back when the set later evicts it, with the write in the warm-up
// or in the measured window.
func TestGroupedPrefixWriteBack(t *testing.T) {
	cfg := cache.Config{Name: "wb", SizeBytes: 2 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	// Set 0: block 0 is written on its first touch, then blocks 1..3 fill
	// the set and 0 is read again; a stream of new blocks then evicts
	// everything, block 0 included.
	var stream []trace.Record
	add := func(tag int, write bool) {
		stream = append(stream, trace.Record{Addr: uint64(tag*cfg.Sets()) * 64, Gap: 1, Write: write})
	}
	add(0, true)
	for tag := 1; tag < 4; tag++ {
		add(tag, false)
	}
	add(0, false)
	for tag := 4; tag < 12; tag++ {
		add(tag, false)
	}
	if g := cache.Group(stream, cfg, 0); g.ProbeFree() != 5 {
		t.Fatalf("%d records probe-free, want 5", g.ProbeFree())
	}
	// Under PLRU the eight new blocks evict all four ways; under LIP they
	// only evict each other, and block 0 stays.
	for _, tc := range []struct {
		vec        ipv.Vector
		writebacks uint64
	}{{ipv.LRU(cfg.Ways), 1}, {ipv.LIP(cfg.Ways), 0}} {
		for _, warm := range []int{0, 1, 5} {
			r, _ := replayThree(t, stream, cfg, tc.vec, warm)
			r.check(t, fmt.Sprintf("vec %v warm %d", tc.vec, warm))
			if r.grouped.Writebacks != tc.writebacks {
				t.Fatalf("vec %v warm %d: %d write-backs, want %d", tc.vec, warm, r.grouped.Writebacks, tc.writebacks)
			}
		}
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
			kernel().ReplayGrouped(batchreplay.Group(stream, 16, 4, 6, 10))
		},
		"other block size": func() {
			kernel().ReplayGrouped(batchreplay.Group(stream, 8, 4, 7, 10))
		},
		"other ways": func() {
			kernel().ReplayGrouped(batchreplay.Group(stream, 8, 8, 6, 10))
		},
		"non-pow2 sets":    func() { batchreplay.Group(stream, 6, 4, 6, 0) },
		"unsupported ways": func() { batchreplay.Group(stream, 8, 3, 6, 0) },
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
