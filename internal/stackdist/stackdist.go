// Package stackdist is the single-pass all-geometry simulation engine: one
// walk of an LLC access stream scores every LRU geometry in a (set count x
// associativity) lattice exactly, plus any configured list of tree-PLRU
// geometries, turning an O(configs x records) design-space sweep into
// O(records).
//
// The LRU half rests on Mattson's stack (inclusion) property: under true
// LRU, an access whose per-set stack distance is d — the number of distinct
// blocks touched in its set since the block's previous access — hits every
// cache of that set count with more than d ways and misses every one with
// fewer. The engine therefore keeps, for each set count in the lattice, a
// truncated most-recently-used list of the MaxWays most recent distinct
// blocks per set (the Hill & Smith "forest" of stacks), records a stack
// distance histogram per set count, and recovers the exact hit count of
// every associativity 1..MaxWays from one histogram prefix sum. One pass
// over the stream with O(log sets x MaxWays) bounded work per access yields
// bit-identical hits/misses to a fresh per-geometry replay of every lattice
// point.
//
// Tree-PLRU has no inclusion property (a taller tree is not a superset of a
// shorter one), so PLRU points cannot come out of a stack histogram.
// Instead, after the LRU walk, the engine replays the stream in order once
// per configured PLRU geometry on the batched tree-PLRU kernel
// (cache.NewPackedReplay), which is bit-identical to a scalar cache.Cache
// under policy.NewPLRU, so PLRU results are exact by construction.
package stackdist

import (
	"fmt"
	"math/bits"

	"gippr/internal/cache"
	"gippr/internal/plrutree"
	"gippr/internal/policy"
	"gippr/internal/stats"
	"gippr/internal/trace"
)

// Policy labels used in GeometryResult.Policy and point labels.
const (
	PolicyLRU  = "lru"
	PolicyPLRU = "plru"
)

// MaxLatticeWays bounds the lattice's associativity axis: every access
// scans up to MaxWays slots per set count, so an unbounded request would
// turn the one-pass engine into the per-point cost it exists to avoid.
const MaxLatticeWays = 512

// Geometry names one (sets, ways) cache shape.
type Geometry struct {
	Sets int `json:"sets"`
	Ways int `json:"ways"`
}

// Point identifies one sweep result slot: a geometry under a policy.
type Point struct {
	Policy string `json:"policy"`
	Sets   int    `json:"sets"`
	Ways   int    `json:"ways"`
}

// Label renders the point's canonical cell label, e.g. "lru@4096x16".
func (p Point) Label() string {
	return fmt.Sprintf("%s@%dx%d", p.Policy, p.Sets, p.Ways)
}

// Options configures one sweep: the block size shared by every geometry,
// the LRU lattice bounds (every power-of-two set count in [MinSets,
// MaxSets] crossed with every associativity 1..MaxWays), the number of
// leading warm-up accesses excluded from the counts, and the tree-PLRU
// geometries to co-simulate.
type Options struct {
	BlockBytes int
	MinSets    int
	MaxSets    int
	MaxWays    int
	Warm       int
	PLRU       []Geometry
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks the sweep request up front — before any stream is walked
// — so a range whose associativity exceeds a tree-PLRU set's capacity (or
// any other impossible shape) fails fast instead of panicking mid-replay.
// Every failure wraps cache.ErrBadGeometry, which runctx and gippr-serve
// already map to the usage exit code and HTTP 400.
func (o Options) Validate() error {
	if !pow2(o.BlockBytes) {
		return fmt.Errorf("%w: one-pass sweep: block size %d is not a positive power of two",
			cache.ErrBadGeometry, o.BlockBytes)
	}
	if !pow2(o.MinSets) {
		return fmt.Errorf("%w: one-pass sweep: min sets %d is not a positive power of two",
			cache.ErrBadGeometry, o.MinSets)
	}
	if !pow2(o.MaxSets) {
		return fmt.Errorf("%w: one-pass sweep: max sets %d is not a positive power of two",
			cache.ErrBadGeometry, o.MaxSets)
	}
	if o.MinSets > o.MaxSets {
		return fmt.Errorf("%w: one-pass sweep: min sets %d exceeds max sets %d",
			cache.ErrBadGeometry, o.MinSets, o.MaxSets)
	}
	if o.MaxWays < 1 || o.MaxWays > MaxLatticeWays {
		return fmt.Errorf("%w: one-pass sweep: max ways %d is outside 1..%d",
			cache.ErrBadGeometry, o.MaxWays, MaxLatticeWays)
	}
	if o.Warm < 0 {
		return fmt.Errorf("%w: one-pass sweep: negative warm-up %d", cache.ErrBadGeometry, o.Warm)
	}
	for _, g := range o.PLRU {
		if !pow2(g.Sets) {
			return fmt.Errorf("%w: one-pass sweep: tree-PLRU geometry %dx%d: sets is not a positive power of two",
				cache.ErrBadGeometry, g.Sets, g.Ways)
		}
		if g.Ways < 2 || g.Ways > plrutree.MaxWays || !pow2(g.Ways) {
			return fmt.Errorf("%w: one-pass sweep: tree-PLRU geometry %dx%d: ways must be a power of two in 2..%d (a PseudoLRU set's capacity)",
				cache.ErrBadGeometry, g.Sets, g.Ways, plrutree.MaxWays)
		}
	}
	return nil
}

// logRange returns the inclusive log2 bounds of the lattice's set counts.
// Meaningful only after Validate.
func (o Options) logRange() (lo, hi int) {
	return bits.TrailingZeros(uint(o.MinSets)), bits.TrailingZeros(uint(o.MaxSets))
}

// Points returns the sweep's result count: the full LRU lattice plus the
// PLRU geometries.
func (o Options) Points() int {
	lo, hi := o.logRange()
	return (hi-lo+1)*o.MaxWays + len(o.PLRU)
}

// Lattice enumerates the sweep's result slots in result order: for each set
// count (ascending), LRU at every associativity 1..MaxWays, then the PLRU
// geometries in configuration order. Run's Results align with this slice
// index for index.
func (o Options) Lattice() []Point {
	lo, hi := o.logRange()
	out := make([]Point, 0, o.Points())
	for s := lo; s <= hi; s++ {
		for w := 1; w <= o.MaxWays; w++ {
			out = append(out, Point{Policy: PolicyLRU, Sets: 1 << s, Ways: w})
		}
	}
	for _, g := range o.PLRU {
		out = append(out, Point{Policy: PolicyPLRU, Sets: g.Sets, Ways: g.Ways})
	}
	return out
}

// Labels returns the canonical cell labels of every result slot, in result
// order.
func (o Options) Labels() []string {
	pts := o.Lattice()
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.Label()
	}
	return out
}

// GeometryResult is one geometry's exact outcome over the measured window.
type GeometryResult struct {
	Policy   string  `json:"policy"`
	Sets     int     `json:"sets"`
	Ways     int     `json:"ways"`
	Accesses uint64  `json:"accesses"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	MPKI     float64 `json:"mpki"`
}

// Label renders the result's canonical cell label, e.g. "lru@4096x16".
func (g GeometryResult) Label() string {
	return Point{Policy: g.Policy, Sets: g.Sets, Ways: g.Ways}.Label()
}

// Sweep is one Run's full outcome. Accesses and Instructions describe the
// measured window and are shared by every geometry (the stream is the
// stream); Results follow Options.Lattice order.
type Sweep struct {
	BlockBytes   int              `json:"block_bytes"`
	Accesses     uint64           `json:"accesses"`
	Instructions uint64           `json:"instructions"`
	Results      []GeometryResult `json:"results"`
}

// Find returns the result for one (policy, sets, ways) point.
func (s *Sweep) Find(pol string, sets, ways int) (GeometryResult, bool) {
	for _, r := range s.Results {
		if r.Policy == pol && r.Sets == sets && r.Ways == ways {
			return r, true
		}
	}
	return GeometryResult{}, false
}

// forest is the truncated stack forest for one set count: per set, the
// MaxWays most recently used distinct block numbers, MRU first, plus the
// stack-distance histogram. hist[d] counts measured accesses at distance d;
// hist[maxW] counts accesses beyond every tracked depth (misses at all
// lattice associativities), including cold misses.
type forest struct {
	sets int
	mask uint64
	mru  []uint64 // sets x maxW slots, MRU-first per set
	n    []int32  // valid slots per set
	hist []uint64 // maxW+1 buckets
}

// access pushes one block reference through the forest, recording its stack
// distance when measured. The scan and the move-to-front both touch at most
// maxW contiguous slots.
func (f *forest) access(block uint64, maxW int, measured bool) {
	set := int(block & f.mask)
	s := f.mru[set*maxW : set*maxW+maxW]
	n := int(f.n[set])
	for i := 0; i < n; i++ {
		if s[i] == block {
			if measured {
				f.hist[i]++
			}
			copy(s[1:i+1], s[:i])
			s[0] = block
			return
		}
	}
	if measured {
		f.hist[maxW]++
	}
	if n < maxW {
		n++
		f.n[set] = int32(n)
	}
	copy(s[1:n], s[:n-1])
	s[0] = block
}

// Run returns exact results for every lattice point and PLRU geometry: one
// walk of the stream scores the whole LRU lattice, and one batched-kernel
// replay per PLRU geometry scores that geometry. The first opts.Warm
// accesses only warm the stacks and caches (mirroring cache.ReplayStream's
// warm-up contract); counts describe the remainder. Instructions is the sum
// of record gaps over the measured window, the same denominator every
// per-geometry replay feeds stats.MPKI, so MPKI values are bit-identical to
// per-point replays.
func Run(stream []trace.Record, opts Options) (*Sweep, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	warm := opts.Warm
	if warm > len(stream) {
		warm = len(stream)
	}
	blockShift := uint(bits.TrailingZeros(uint(opts.BlockBytes)))
	lo, hi := opts.logRange()
	maxW := opts.MaxWays

	forests := make([]forest, hi-lo+1)
	for i := range forests {
		sets := 1 << (lo + i)
		forests[i] = forest{
			sets: sets,
			mask: uint64(sets - 1),
			mru:  make([]uint64, sets*maxW),
			n:    make([]int32, sets),
			hist: make([]uint64, maxW+1),
		}
	}

	for _, r := range stream[:warm] {
		block := r.Addr >> blockShift
		for i := range forests {
			forests[i].access(block, maxW, false)
		}
	}
	var accesses, instrs uint64
	for _, r := range stream[warm:] {
		block := r.Addr >> blockShift
		for i := range forests {
			forests[i].access(block, maxW, true)
		}
		accesses++
		instrs += uint64(r.Gap)
	}

	sw := &Sweep{BlockBytes: opts.BlockBytes, Accesses: accesses, Instructions: instrs}
	sw.Results = make([]GeometryResult, 0, opts.Points())
	for fi := range forests {
		f := &forests[fi]
		var hits uint64
		for w := 1; w <= maxW; w++ {
			hits += f.hist[w-1]
			sw.Results = append(sw.Results, GeometryResult{
				Policy: PolicyLRU, Sets: f.sets, Ways: w,
				Accesses: accesses, Hits: hits, Misses: accesses - hits,
				MPKI: stats.MPKI(accesses-hits, instrs),
			})
		}
	}
	for _, g := range opts.PLRU {
		cfg := cache.Config{
			Name:       fmt.Sprintf("plru-%dx%d", g.Sets, g.Ways),
			SizeBytes:  g.Sets * g.Ways * opts.BlockBytes,
			Ways:       g.Ways,
			BlockBytes: opts.BlockBytes,
		}
		pr, ok := cache.NewPackedReplay(cfg, policy.NewPLRU(g.Sets, g.Ways))
		if !ok {
			panic(fmt.Sprintf("stackdist: tree-PLRU geometry %dx%d outside the batched kernel", g.Sets, g.Ways)) // unreachable: Validate
		}
		st := pr.Replay(stream, warm)
		sw.Results = append(sw.Results, GeometryResult{
			Policy: PolicyPLRU, Sets: g.Sets, Ways: g.Ways,
			Accesses: st.Accesses, Hits: st.Hits, Misses: st.Misses,
			MPKI: stats.MPKI(st.Misses, instrs),
		})
	}
	return sw, nil
}
