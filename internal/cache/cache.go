// Package cache implements the trace-driven set-associative cache model and
// the three-level hierarchy of the paper's evaluation (Section 4.5): a 32 KB
// 8-way L1 data cache, a 256 KB 8-way unified L2, a 4 MB 16-way L3 (the
// last-level cache whose replacement policy is under study), and a 200-cycle
// DRAM.
//
// The model is a miss-accounting simulator in the style of CMP$im's cache
// core: it tracks tags, dirty bits and replacement state, not data.
// Replacement policy is pluggable per cache via the Policy interface; every
// policy in package policy (LRU, PLRU, DRRIP, PDP, GIPPR, DGIPPR, ...)
// implements it. The hierarchy is non-inclusive/non-exclusive by default
// (each level fills on its own miss; opt into back-invalidation with
// Hierarchy.MakeInclusive) and write misses allocate like reads; these
// simplifications do not affect relative replacement-policy behaviour at
// the LLC, which is what the paper measures.
//
// Because the L1 and L2 policies are fixed, the access stream reaching the
// LLC is independent of the LLC's own replacement policy. The hierarchy can
// therefore record the LLC-visible stream once (RecordLLC), and searches
// such as the genetic algorithm replay it into an LLC-only model with
// ReplayStream — exactly the paper's Valgrind-trace methodology
// (Section 4.3), and orders of magnitude faster than re-simulating L1/L2.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// ErrBadGeometry is the sentinel wrapped by every cache-geometry validation
// failure (inconsistent size/ways/block, non-power-of-two set counts, and
// out-of-range set-sampling shifts). Callers branch with errors.Is: the cmd
// tools map it to their usage exit code and the job service maps it to
// 400 Bad Request.
var ErrBadGeometry = errors.New("cache: bad geometry")

// Policy decides replacement within each set of one cache. Implementations
// hold all their per-set state (recency stacks, plru bits, RRPVs, ...).
// The cache calls:
//
//   - OnHit when an access hits;
//   - OnMiss once per miss, before victim selection (dueling policies use
//     this to update their selection counters);
//   - Victim on a miss in a full set, to choose the way to evict;
//   - OnEvict when a valid block is evicted (its way is about to be
//     overwritten);
//   - OnFill after the missing block has been placed in a way (whether it
//     replaced a victim or filled an invalid way).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	OnHit(set uint32, way int, r trace.Record)
	OnMiss(set uint32, r trace.Record)
	Victim(set uint32, r trace.Record) int
	OnEvict(set uint32, way int, r trace.Record)
	OnFill(set uint32, way int, r trace.Record)
}

// Instrumented is optionally implemented by replacement policies that can
// emit telemetry events (insertion positions, promotion distances, dueling
// votes). Cache.SetTelemetry forwards its sink to an Instrumented policy so
// cache-level and policy-level events land in the same place.
type Instrumented interface {
	SetTelemetry(*telemetry.Sink)
}

// Bypasser is optionally implemented by replacement policies that can
// decide an incoming block should not be cached at all (e.g. PDP with
// bypass, or the GIPPR+bypass extension). The cache consults it on a miss
// only when the set is full; a bypassed access counts as a miss but evicts
// nothing and fills nothing. Bypass violates inclusion, so it must not be
// used at an inclusive level.
type Bypasser interface {
	ShouldBypass(set uint32, r trace.Record) bool
}

// Config describes one cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	// HitLatency is the access latency in cycles when this cache hits,
	// used by the CPU timing models.
	HitLatency int
	// SampleShift enables set sampling: only sets selected by a fixed
	// deterministic hash of the set index — a 1-in-2^SampleShift fraction —
	// are simulated; accesses to every other set are skipped (counted in
	// Stats.Skipped and treated as hits by the timing models). Miss counts
	// from a sampled cache estimate the full cache's misses after scaling
	// by SampleFactor. 0 (the zero value) means full fidelity: every set is
	// simulated and behaviour is bit-identical to a Config without the
	// field. This is the same statistical bet the paper's set-dueling makes
	// (a few leader sets predict the whole cache); DESIGN.md §9 derives the
	// estimator and its error model.
	SampleShift uint
}

// sampleSeed is the fixed hash seed behind set sampling. It is a package
// constant, not a Config field, so every sampled simulation of a geometry
// selects the same sets — estimates are reproducible across runs, tools and
// worker counts by construction.
const sampleSeed = 0x5e75a11ed5e75 // "set sampled sets"

// InSample reports whether a sampled cache simulates the given set. With
// SampleShift 0 every set is in the sample. The primary rule keeps a set
// when the low SampleShift bits of a hash of its index are zero; in the
// degenerate case where that selects no set at all (tiny caches at large
// shifts), the rule falls back to plain striding (every 2^shift-th set,
// which always includes set 0), keeping the sample non-empty.
func (c Config) InSample(set uint32) bool {
	if c.SampleShift == 0 {
		return true
	}
	mask := uint64(1)<<c.SampleShift - 1
	if c.hashSampleEmpty() {
		return uint64(set)&mask == 0
	}
	return xrand.Mix(uint64(set), sampleSeed)&mask == 0
}

// hashSampleEmpty reports whether the hash rule selects no set (the
// fallback trigger in InSample). SampleShift must be non-zero.
func (c Config) hashSampleEmpty() bool {
	mask := uint64(1)<<c.SampleShift - 1
	for set := 0; set < c.Sets(); set++ {
		if xrand.Mix(uint64(set), sampleSeed)&mask == 0 {
			return false
		}
	}
	return true
}

// SampledSets returns how many sets the sample selects (all of them when
// SampleShift is 0). The hash keeps a 1-in-2^SampleShift fraction in
// expectation; the exact count varies, which is why estimates scale by the
// measured SampleFactor rather than by 2^SampleShift.
func (c Config) SampledSets() int {
	if c.SampleShift == 0 {
		return c.Sets()
	}
	n := 0
	for set := 0; set < c.Sets(); set++ {
		if c.InSample(uint32(set)) {
			n++
		}
	}
	return n
}

// SampleFactor returns the factor that scales sampled-set event counts up
// to full-cache estimates: total sets over sampled sets (exactly 1 at full
// fidelity).
func (c Config) SampleFactor() float64 {
	return float64(c.Sets()) / float64(c.SampledSets())
}

// Validate checks the whole geometry without panicking: positive
// size/ways/block, power-of-two set and block counts, and a sampling shift
// that still selects at least one set. Every failure wraps ErrBadGeometry.
// Sets() enforces the same invariants by panic for internal callers that
// construct geometries from trusted constants; Validate is the error-path
// twin for geometries that cross an API boundary (job submissions, facade
// construction, flag parsing).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("%w: %s: size %d, ways %d, block %d must all be positive",
			ErrBadGeometry, c.Name, c.SizeBytes, c.Ways, c.BlockBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("%w: %s: block size %d is not a power of two", ErrBadGeometry, c.Name, c.BlockBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%w: %s: %d sets is not a power of two", ErrBadGeometry, c.Name, sets)
	}
	if _, err := c.CheckSampleShift(int(c.SampleShift)); err != nil {
		return err
	}
	return nil
}

// CheckSampleShift validates a user-supplied set-sampling shift against
// this geometry and returns it as the SampleShift field value. Negative
// shifts and shifts that sample fewer than one set (2^shift > sets) wrap
// ErrBadGeometry — they used to be silently clamped by the degenerate-hash
// fallback, which made "-sample 99" quietly simulate a single set.
func (c Config) CheckSampleShift(shift int) (uint, error) {
	if shift < 0 {
		return 0, fmt.Errorf("%w: %s: sample shift %d is negative", ErrBadGeometry, c.Name, shift)
	}
	if shift > 0 {
		base := c
		base.SampleShift = 0
		if sets := base.Sets(); shift >= bits.Len(uint(sets)) {
			return 0, fmt.Errorf("%w: %s: sample shift %d exceeds the geometry (2^%d > %d sets)",
				ErrBadGeometry, c.Name, shift, shift, sets)
		}
	}
	return uint(shift), nil
}

// blockShift is log2 of the block size: an address's block number is
// addr >> blockShift.
func (c Config) blockShift() uint { return uint(bits.TrailingZeros(uint(c.BlockBytes))) }

// Sets returns the number of sets implied by the geometry. It panics if the
// geometry is inconsistent or not a power of two.
func (c Config) Sets() int {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", c))
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s: %d sets is not a power of two", c.Name, sets))
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: %s: block size %d is not a power of two", c.Name, c.BlockBytes))
	}
	return sets
}

// Standard geometries from the paper (Section 4.5).
var (
	L1Config = Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64, HitLatency: 3}
	L2Config = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64, HitLatency: 12}
	L3Config = Config{Name: "L3", SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64, HitLatency: 30}
)

// DRAMLatency is the paper's main-memory latency in cycles.
const DRAMLatency = 200

// Stats counts events at one cache.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
	// Writebacks counts evictions of dirty lines — the write traffic this
	// cache would send toward memory. The simulator accounts it as a
	// statistic; writeback traffic is not re-injected into lower levels
	// (replacement decisions at the LLC are driven by demand references).
	Writebacks uint64
	// Skipped counts accesses to sets outside the sample when set sampling
	// is enabled (Config.SampleShift > 0). Skipped accesses are not counted
	// in Accesses/Hits/Misses, so those counters describe only the sampled
	// sets and scale up by Config.SampleFactor.
	Skipped uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	block uint64 // full block number (addr >> blockShift); tag+index in one
	valid bool
	dirty bool
}

// Cache is one level of set-associative cache.
type Cache struct {
	cfg        Config
	sets       int
	ways       int
	setMask    uint64
	blockShift uint
	lines      []line // flattened [set*ways + way]
	sampled    []bool // nil at full fidelity; else per-set in-sample flags
	pol        Policy
	Stats      Stats
	tel        *telemetry.Sink // nil when telemetry is disabled

	// OnEviction, if set, is called with the byte address of every valid
	// block this cache evicts. Hierarchies use it to implement inclusion
	// (back-invalidation of inner levels).
	OnEviction func(addr uint64)
}

// New returns a cache with the given geometry and replacement policy.
func New(cfg Config, pol Policy) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		setMask:    uint64(sets - 1),
		blockShift: cfg.blockShift(),
		lines:      make([]line, sets*cfg.Ways),
		pol:        pol,
	}
	if cfg.SampleShift > 0 {
		c.sampled = make([]bool, sets)
		for set := 0; set < sets; set++ {
			c.sampled[set] = cfg.InSample(uint32(set))
		}
	}
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Policy returns the replacement policy in use.
func (c *Cache) Policy() Policy { return c.pol }

// SetTelemetry attaches an event sink to the cache (nil detaches). The sink
// is sized for the cache's line count and, when the replacement policy is
// Instrumented, shared with it, so cache-level events (hits, misses,
// evictions with measured reuse) and policy-level events (insertion and
// promotion positions, dueling votes) accumulate together. With no sink
// attached, the Access hot path pays exactly one nil check per event site.
func (c *Cache) SetTelemetry(s *telemetry.Sink) {
	s.Attach(len(c.lines))
	c.tel = s
	if ins, ok := c.pol.(Instrumented); ok {
		ins.SetTelemetry(s)
	}
}

// Telemetry returns the attached sink (nil when disabled).
func (c *Cache) Telemetry() *telemetry.Sink { return c.tel }

// Block returns the block number of a byte address in this cache's geometry.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.blockShift }

// SetOf returns the set index a byte address maps to.
func (c *Cache) SetOf(addr uint64) uint32 { return uint32(c.Block(addr) & c.setMask) }

// Access performs one reference and returns whether it hit. On a miss the
// block is filled (allocate-on-miss for both reads and writes).
func (c *Cache) Access(r trace.Record) bool {
	block := c.Block(r.Addr)
	set := uint32(block & c.setMask)
	if c.sampled != nil && !c.sampled[set] {
		// Out-of-sample set: no tags are kept for it, so nothing to do.
		// Reported as a hit so timing models charge the optimistic latency
		// (DESIGN.md §9 discusses the resulting CPI bias).
		c.Stats.Skipped++
		return true
	}
	c.Stats.Accesses++
	if r.Write {
		c.Stats.Writes++
	}
	base := int(set) * c.ways
	ls := c.lines[base : base+c.ways]
	for w := range ls {
		if ls[w].valid && ls[w].block == block {
			c.Stats.Hits++
			if r.Write {
				ls[w].dirty = true
			}
			if c.tel != nil {
				c.tel.Hit(base + w)
			}
			c.pol.OnHit(set, w, r)
			return true
		}
	}
	c.Stats.Misses++
	if c.tel != nil {
		c.tel.Miss()
	}
	c.pol.OnMiss(set, r)
	w := -1
	for i := range ls {
		if !ls[i].valid {
			w = i
			break
		}
	}
	if w < 0 {
		if bp, ok := c.pol.(Bypasser); ok && bp.ShouldBypass(set, r) {
			c.tel.Bypass() // nil-safe; off the common path
			return false
		}
		w = c.pol.Victim(set, r)
		if w < 0 || w >= c.ways {
			panic(fmt.Sprintf("cache: %s: policy %s chose invalid victim way %d", c.cfg.Name, c.pol.Name(), w))
		}
		c.Stats.Evictions++
		if ls[w].dirty {
			c.Stats.Writebacks++
		}
		if c.tel != nil {
			c.tel.Evict(base+w, ls[w].dirty)
		}
		c.pol.OnEvict(set, w, r)
		if c.OnEviction != nil {
			c.OnEviction(ls[w].block << c.blockShift)
		}
	}
	ls[w] = line{block: block, valid: true, dirty: r.Write}
	if c.tel != nil {
		c.tel.Fill(base + w)
	}
	c.pol.OnFill(set, w, r)
	return false
}

// Invalidate removes the block holding addr if present, returning whether
// it was resident. Used for back-invalidation in inclusive hierarchies.
// The replacement policy is not notified: the line simply becomes invalid
// and will be preferred for the next fill.
func (c *Cache) Invalidate(addr uint64) bool {
	block := c.Block(addr)
	set := uint32(block & c.setMask)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].valid && c.lines[base+w].block == block {
			c.lines[base+w].valid = false
			return true
		}
	}
	return false
}

// Contains reports whether the block holding addr is present (no state
// change; for tests).
func (c *Cache) Contains(addr uint64) bool {
	block := c.Block(addr)
	set := uint32(block & c.setMask)
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].valid && c.lines[base+w].block == block {
			return true
		}
	}
	return false
}

// ResetStats zeroes the counters and any attached telemetry (e.g. after
// cache warm-up). The telemetry sink's per-line reuse clocks survive the
// reset, so reuse intervals spanning the warm-up boundary stay correct.
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	c.tel.Reset()
}
