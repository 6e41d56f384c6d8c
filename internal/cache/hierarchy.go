package cache

import (
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// Level identifies where an access was satisfied.
type Level int

// Hierarchy levels, in lookup order.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelL3
	LevelMemory
)

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMemory:
		return "MEM"
	default:
		return "?"
	}
}

// Hierarchy is the three-level cache hierarchy of the paper's simulator.
type Hierarchy struct {
	L1, L2, L3 *Cache
	// DRAM is the main-memory latency in cycles.
	DRAM int
	// Instructions is the running instruction count (sum of record gaps).
	Instructions uint64

	// RecordLLC, when set before simulation, captures the stream of
	// accesses that reach the L3 into LLCStream. Each captured record's Gap
	// holds the number of instructions since the previous LLC access, so
	// the captured stream alone supports CPI estimation during replay.
	RecordLLC bool
	LLCStream []trace.Record

	gapSinceLLC uint64
}

// NewHierarchy assembles a hierarchy from three caches. Pass the policies
// you want; the paper fixes L1/L2 to true LRU and varies only L3.
func NewHierarchy(l1, l2, l3 *Cache) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2, L3: l3, DRAM: DRAMLatency}
}

// ReserveLLC pre-sizes the LLCStream capture buffer for a run of at most n
// references. The captured stream can never exceed the number of references
// pushed in, so reserving the source's record budget up front turns the
// capture loop's millions of appends into plain stores — no geometric
// regrowth, no copying of a multi-megabyte backing array per doubling.
// Callers that keep the stream long-term should copy it down to its final
// length (the budget is an upper bound; L1/L2 filter most references out).
func (h *Hierarchy) ReserveLLC(n int) {
	if n > 0 && cap(h.LLCStream)-len(h.LLCStream) < n {
		grown := make([]trace.Record, len(h.LLCStream), len(h.LLCStream)+n)
		copy(grown, h.LLCStream)
		h.LLCStream = grown
	}
}

// SetTelemetry attaches one event sink per level (any of which may be nil
// to leave that level uninstrumented). Detach everything with three nils.
func (h *Hierarchy) SetTelemetry(l1, l2, l3 *telemetry.Sink) {
	h.L1.SetTelemetry(l1)
	h.L2.SetTelemetry(l2)
	h.L3.SetTelemetry(l3)
}

// MakeInclusive enforces inclusion: an eviction from the L3
// back-invalidates the block in L1 and L2, and an L2 eviction
// back-invalidates L1. Policies that bypass the LLC must not be used in an
// inclusive hierarchy (the bypassed block would live in L1/L2 without an L3
// copy) — the same caveat the paper notes for PDP-with-bypass.
func (h *Hierarchy) MakeInclusive() {
	h.L3.OnEviction = func(addr uint64) {
		h.L1.Invalidate(addr)
		h.L2.Invalidate(addr)
	}
	h.L2.OnEviction = func(addr uint64) {
		h.L1.Invalidate(addr)
	}
}

// Access performs one reference through the hierarchy and returns the level
// that satisfied it.
func (h *Hierarchy) Access(r trace.Record) Level {
	h.Instructions += uint64(r.Gap)
	h.gapSinceLLC += uint64(r.Gap)
	if h.L1.Access(r) {
		return LevelL1
	}
	if h.L2.Access(r) {
		return LevelL2
	}
	if h.RecordLLC {
		cr := r
		g := h.gapSinceLLC
		if g > 1<<31 {
			g = 1 << 31
		}
		cr.Gap = uint32(g)
		h.LLCStream = append(h.LLCStream, cr)
	}
	h.gapSinceLLC = 0
	if h.L3.Access(r) {
		return LevelL3
	}
	return LevelMemory
}

// Latency returns the access latency in cycles for a reference satisfied at
// the given level. Memory latency is DRAM on top of the L3 lookup.
func (h *Hierarchy) Latency(l Level) int {
	switch l {
	case LevelL1:
		return h.L1.cfg.HitLatency
	case LevelL2:
		return h.L2.cfg.HitLatency
	case LevelL3:
		return h.L3.cfg.HitLatency
	default:
		return h.L3.cfg.HitLatency + h.DRAM
	}
}

// Run drains a trace source through the hierarchy and returns the number of
// references processed.
func (h *Hierarchy) Run(src trace.Source) uint64 {
	var n uint64
	for {
		r, ok := src.Next()
		if !ok {
			return n
		}
		h.Access(r)
		n++
	}
}

// ResetStats zeroes the counters at every level and the instruction count
// (used after warm-up), keeping cache contents and replacement state.
func (h *Hierarchy) ResetStats() {
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
	h.Instructions = 0
}

// ReplayStats summarizes an LLC-only replay.
type ReplayStats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	Instructions uint64 // sum of gaps in the replayed window
}

// ReplayStream replays an LLC access stream (as captured via RecordLLC) into
// a standalone LLC with the given policy. The first warm accesses only warm
// the cache; statistics cover the remainder. This is the paper's fitness-
// evaluation path (Section 4.3: 500M instructions of warm-up, then measure).
func ReplayStream(stream []trace.Record, cfg Config, pol Policy, warm int) ReplayStats {
	return ReplayStreamTel(stream, cfg, pol, warm, nil)
}

// ReplayStreamTel is ReplayStream with an optional telemetry sink attached
// to the LLC for the duration of the replay. Warm-up events are discarded
// at the warm boundary (the sink is reset together with the cache stats),
// so the sink describes exactly the measurement window. A nil sink makes it
// identical to ReplayStream: the hot loop pays only the per-event nil
// checks inside Cache.Access.
//
// When the policy opts into the batched fast path (batchreplay.Packable —
// PLRU and single-vector GIPPR do), the replay runs through the packed
// branch-free kernel instead of Cache.Access. The two paths are
// bit-identical in every observable: stats, telemetry event sequence and
// final policy state (FuzzBatchedReplayConsistency and the golden-MPKI
// suite pin this), so the dispatch needs no call-site opt-in.
func ReplayStreamTel(stream []trace.Record, cfg Config, pol Policy, warm int, tel *telemetry.Sink) ReplayStats {
	if pr, ok := NewPackedReplay(cfg, pol); ok {
		if tel != nil {
			pr.K.SetTelemetry(tel)
		}
		return pr.Replay(stream, warm)
	}
	c := New(cfg, pol)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	if warm > len(stream) {
		warm = len(stream)
	}
	for _, r := range stream[:warm] {
		c.Access(r)
	}
	c.ResetStats()
	var rs ReplayStats
	for _, r := range stream[warm:] {
		c.Access(r)
		rs.Instructions += uint64(r.Gap)
	}
	rs.Accesses = c.Stats.Accesses
	rs.Hits = c.Stats.Hits
	rs.Misses = c.Stats.Misses
	return rs
}
