package batchreplay

import (
	"fmt"
	"math"
	"math/bits"

	"gippr/internal/plrutree"
	"gippr/internal/trace"
)

// Grouped is one LLC stream laid out set by set for ReplayGrouped: the
// records of each set in stream order, stored contiguously in one uint32
// each. Under an IPV-over-tree-PLRU policy the sets of a cache share no
// state, so replaying each set's records together gives the same counters
// and the same final tree words as replaying the stream in order (DESIGN.md
// §16). The warm-up boundary becomes a per-set record count and the
// measured instructions a per-stream constant.
//
// Each set's records start with its pre-eviction prefix: every record
// before the first reference to the set's (ways+1)-th distinct block. Until
// then ways fill in order and nothing is evicted, so each prefix record's
// way, hit or miss, and write are the same under every IPV. Group resolves
// them once: a prefix record that fills a way is stored as tag<<1|1 (it
// fills the next way), one that hits as way<<1. Suffix records, from the
// first eviction on, are stored as tag<<1|write.
//
// A Grouped is immutable once built and safe for concurrent use; one layout
// serves every replay of its stream under the geometry it was built for.
type Grouped struct {
	sets       int
	ways       int
	blockShift uint
	off        []uint32 // records of set s are recs[off[s]:off[s+1]]
	warm       []uint32 // per set: how many of its records fall in the warm-up
	pre        []prefix // per set: its pre-eviction prefix
	recs       []uint32 // prefix: tag<<1|1 or way<<1; suffix: tag<<1|write
	instr      uint64   // sum of record gaps in the measured window
}

// prefix is what a set's pre-eviction prefix contributes to a replay,
// whatever the IPV: its length, the hits and writes among its measured
// records, and the set's dirty mask at its end.
type prefix struct {
	n, hits, writes uint32
	dirty           uint64
}

// Group builds the set-grouped layout of stream for a cache of sets sets (a
// power of two) and ways ways (Supported) with the given block-offset
// shift, warming on the first warm records (clamped to the stream, as
// Kernel.Replay does). It returns nil when the stream cannot be grouped —
// some tag needs more than 31 bits, or the stream has more than
// math.MaxUint32 records — and the caller then replays in stream order.
func Group(stream []trace.Record, sets, ways int, blockShift uint, warm int) *Grouped {
	if sets < 1 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("batchreplay: %d sets is not a power of two", sets))
	}
	if !Supported(ways) {
		panic(fmt.Sprintf("batchreplay: associativity %d is not a power of two in 2..%d", ways, plrutree.MaxWays))
	}
	if uint64(len(stream)) > math.MaxUint32 {
		return nil
	}
	if warm > len(stream) {
		warm = len(stream)
	}
	setBits := uint(bits.TrailingZeros(uint(sets)))
	setMask := uint64(sets - 1)
	g := &Grouped{
		sets:       sets,
		ways:       ways,
		blockShift: blockShift,
		off:        make([]uint32, sets+1),
		warm:       make([]uint32, sets),
		pre:        make([]prefix, sets),
		recs:       make([]uint32, len(stream)),
	}
	// Count each set's records into off[s+1], snapshotting the counts at
	// the warm boundary; a prefix sum then turns counts into offsets.
	for i := range stream {
		if i == warm {
			copy(g.warm, g.off[1:])
		}
		b := stream[i].Addr >> blockShift
		if b>>setBits >= 1<<31 {
			return nil
		}
		g.off[b&setMask+1]++
	}
	if warm == len(stream) {
		copy(g.warm, g.off[1:])
	}
	for s := 0; s < sets; s++ {
		g.off[s+1] += g.off[s]
	}
	next := append([]uint32(nil), g.off[:sets]...)
	for i := range stream {
		b := stream[i].Addr >> blockShift
		s := b & setMask
		r := uint32(b>>setBits) << 1
		if stream[i].Write {
			r |= 1
		}
		g.recs[next[s]] = r
		next[s]++
	}
	for s := 0; s < sets; s++ {
		g.pre[s] = resolvePrefix(g.recs[g.off[s]:g.off[s+1]], g.warm[s], ways)
	}
	for i := warm; i < len(stream); i++ {
		g.instr += uint64(stream[i].Gap)
	}
	return g
}

// resolvePrefix rewrites the pre-eviction prefix of recs, one set's
// tag<<1|write records of which the first warm are warm-up, in place (see
// Grouped) and returns what it contributes to a replay. A fill takes way
// filled, the lowest invalid way, as the kernel's cold fills do.
func resolvePrefix(recs []uint32, warm uint32, ways int) prefix {
	var tags [plrutree.MaxWays]uint32
	var p prefix
	filled := 0
	for i, r := range recs {
		tag, write := r>>1, r&1
		w := 0
		for w < filled && tags[w] != tag {
			w++
		}
		switch {
		case w < filled:
			recs[i] = uint32(w) << 1
			if uint32(i) >= warm {
				p.hits++
			}
		case filled < ways:
			tags[w] = tag
			filled++
			recs[i] = tag<<1 | 1
		default:
			return p
		}
		p.dirty |= uint64(write) << w
		if uint32(i) >= warm {
			p.writes += write
		}
		p.n++
	}
	return p
}

// ProbeFree reports how many of the layout's records lie in pre-eviction
// prefixes, the records ReplayGrouped replays without a tag probe.
func (g *Grouped) ProbeFree() int {
	n := 0
	for _, p := range g.pre {
		n += int(p.n)
	}
	return n
}

// ReplayGrouped replays a set-grouped stream through the kernel: each set's
// records in turn, from a cold cache and the kernel's current tree words,
// with the set's state in locals and a small per-set buffer that stays in L1.
// A set's pre-eviction prefix only moves the tree word, with no tag probe;
// its counters come from the layout. The rest of the set's records, from
// its first eviction on, go through the full per-set state machine.
// ReplayGrouped returns the measured-window counters Replay would return
// for the same stream and warm length, and leaves the same final tree words
// (PLRUBits), bit for bit. Out-of-sample sets are skipped whole, their
// measured records counted as Skipped.
//
// The replay visits records out of stream order, so it cannot feed a
// telemetry sink, whose access clock is order-sensitive; it panics when a
// sink is attached. It also models the cache from cold, so it must be the
// kernel's only replay: it panics after any AccessBlock, and a kernel that
// ran it takes no further accesses.
func (k *Kernel) ReplayGrouped(g *Grouped) Result {
	if g.sets != k.sets || g.ways != k.ways || g.blockShift != k.blockShift {
		panic(fmt.Sprintf("batchreplay: layout for %dx%d (block shift %d) replayed on a %dx%d kernel (block shift %d)",
			g.sets, g.ways, g.blockShift, k.sets, k.ways, k.blockShift))
	}
	if k.tel != nil {
		panic("batchreplay: grouped replay cannot feed a telemetry sink")
	}
	if k.tags != nil || k.grouped {
		panic("batchreplay: grouped replay needs a kernel that has modeled no accesses")
	}
	k.grouped = true
	res := Result{Instructions: g.instr}
	var st setState
	for s := 0; s < g.sets; s++ {
		recs := g.recs[g.off[s]:g.off[s+1]]
		warm := int(g.warm[s])
		if k.sampled != nil && !k.sampled[s] {
			res.Skipped += uint64(len(recs) - warm)
			continue
		}
		if len(recs) == 0 {
			continue
		}
		p := g.pre[s]
		res.Accesses += uint64(len(recs) - warm)
		res.Hits += uint64(p.hits)
		res.Writes += uint64(p.writes)
		word := k.replayPrefix(&st, k.plru[s], recs[:p.n])
		if suffix := recs[p.n:]; len(suffix) > 0 {
			split := max(warm-int(p.n), 0)
			st.word, st.dirty = word, p.dirty
			k.replaySet(&st, suffix[:split])
			st.hits, st.writebacks = 0, 0
			measured := suffix[split:]
			k.replaySet(&st, measured)
			word = st.word
			res.Hits += st.hits
			// The set is full: every suffix miss evicts.
			res.Evictions += uint64(len(measured)) - st.hits
			res.Writebacks += st.writebacks
			for _, r := range measured {
				res.Writes += uint64(r & 1)
			}
		}
		k.plru[s] = word
	}
	res.Misses = res.Accesses - res.Hits
	k.stats = res.Stats
	return res
}

// setState is one full set's replacement state during ReplayGrouped, plus
// the hit and write-back counts of the records replayed into it. The set's
// tags sit in tags, with the same one-byte probe filter as the stream-order
// kernel in sig (see Kernel.sig).
type setState struct {
	word, dirty      uint64
	hits, writebacks uint64
	tags             [plrutree.MaxWays]uint32
	sig              [plrutree.MaxWays / 8]uint64
}

// fill stores tag as way w's tag and probe byte. The index masks
// (&(len-1)) are no-ops on valid ways; they let the compiler drop bounds
// checks.
func (st *setState) fill(w int, tag uint32) {
	st.tags[w&(len(st.tags)-1)] = tag
	sw, shift := w>>3&(len(st.sig)-1), uint(w&7)*8
	st.sig[sw] = st.sig[sw]&^(0xFF<<shift) | uint64(byte(tag))<<shift
}

// replayPrefix moves word through one set's pre-eviction prefix (see
// Grouped) and returns it: a fill inserts the next way at the insertion
// position, a hit promotes its way. No record is probed. Each fill also
// seeds the way's tag and probe byte in st, so that once the prefix has
// filled every way, replaySet can take the set from there.
func (k *Kernel) replayPrefix(st *setState, word uint64, recs []uint32) uint64 {
	ops, vec, insPos := k.ops, k.vec, k.insPos
	filled := 0
	for _, r := range recs {
		if r&1 == 0 {
			w := int(r >> 1)
			word = ops.Set(word, w, vec[ops.Position(word, w)])
			continue
		}
		st.fill(filled, r>>1)
		word = ops.Set(word, filled, insPos)
		filled++
	}
	return word
}

// replaySet models recs, consecutive records of one full set, against the
// set's state: access's state machine for one set, with the tree word and
// dirty mask in locals. Every miss evicts the tree-PLRU way. The index
// masks (&(len-1)) are no-ops on valid ways; they let the compiler drop
// bounds checks.
func (k *Kernel) replaySet(st *setState, recs []uint32) {
	ops, vec, insPos, ways, sigWords := k.ops, k.vec, k.insPos, k.ways, k.sigWords
	word, dirty := st.word, st.dirty
	for _, r := range recs {
		tag, write := r>>1, uint64(r&1)
		probe := uint64(byte(tag)) * laneLSB
		w := -1
	probe:
		for j := 0; j < sigWords; j++ {
			z := st.sig[j&(len(st.sig)-1)] ^ probe
			for zb := (z - laneLSB) &^ z & laneMSB; zb != 0; zb &= zb - 1 {
				cand := j*8 + bits.TrailingZeros64(zb)>>3
				if cand < ways && st.tags[cand&(len(st.tags)-1)] == tag {
					w = cand
					break probe
				}
			}
		}
		if w >= 0 {
			st.hits++
			dirty |= write << w
			word = ops.Set(word, w, vec[ops.Position(word, w)])
			continue
		}
		w = ops.Victim(word)
		st.writebacks += dirty >> w & 1
		st.fill(w, tag)
		dirty = dirty&^(1<<w) | write<<w
		word = ops.Set(word, w, insPos)
	}
	st.word, st.dirty = word, dirty
}
