package batchreplay

import (
	"fmt"
	"math"
	"math/bits"

	"gippr/internal/plrutree"
	"gippr/internal/trace"
)

// Grouped is one LLC stream laid out set by set for ReplayGrouped: the
// records of each set in stream order, stored contiguously as tag<<1|write
// in one uint32 each. Under an IPV-over-tree-PLRU policy the sets of a cache
// share no state, so replaying each set's records together gives the same
// counters and the same final tree words as replaying the stream in order
// (DESIGN.md §16). The warm-up boundary becomes a per-set record count and
// the measured instructions a per-stream constant.
//
// A Grouped is immutable once built and safe for concurrent use; one layout
// serves every replay of its stream under the geometry it was built for.
type Grouped struct {
	sets       int
	blockShift uint
	off        []uint32 // records of set s are recs[off[s]:off[s+1]]
	warm       []uint32 // per set: how many of its records fall in the warm-up
	recs       []uint32 // tag<<1 | write
	instr      uint64   // sum of record gaps in the measured window
}

// Group builds the set-grouped layout of stream for a cache of sets sets
// (a power of two) with the given block-offset shift, warming on the first
// warm records (clamped to the stream, as Kernel.Replay does). It returns
// nil when the stream cannot be grouped — some tag needs more than 31 bits,
// or the stream has more than math.MaxUint32 records — and the caller then
// replays in stream order.
func Group(stream []trace.Record, sets int, blockShift uint, warm int) *Grouped {
	if sets < 1 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("batchreplay: %d sets is not a power of two", sets))
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
		blockShift: blockShift,
		off:        make([]uint32, sets+1),
		warm:       make([]uint32, sets),
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
	for i := warm; i < len(stream); i++ {
		g.instr += uint64(stream[i].Gap)
	}
	return g
}

// ReplayGrouped replays a set-grouped stream through the kernel: each set's
// records in turn, from a cold cache and the kernel's current tree words,
// with the set's state in locals and a small per-set buffer that stays in L1.
// It returns the measured-window counters Replay would return for the same
// stream and warm length, and leaves the same final tree words (PLRUBits),
// bit for bit. Out-of-sample sets are skipped whole, their measured records
// counted as Skipped.
//
// The replay visits records out of stream order, so it cannot feed a
// telemetry sink, whose access clock is order-sensitive; it panics when a
// sink is attached. It also models the cache from cold, so it must be the
// kernel's only replay: it panics after any AccessBlock, and a kernel that
// ran it takes no further accesses.
func (k *Kernel) ReplayGrouped(g *Grouped) Result {
	if g.sets != k.sets || g.blockShift != k.blockShift {
		panic(fmt.Sprintf("batchreplay: layout for %d sets (block shift %d) replayed on a %d-set kernel (block shift %d)",
			g.sets, g.blockShift, k.sets, k.blockShift))
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
		warm := recs[:g.warm[s]]
		measured := recs[len(warm):]
		if k.sampled != nil && !k.sampled[s] {
			res.Skipped += uint64(len(measured))
			continue
		}
		if len(recs) == 0 {
			continue
		}
		st.word, st.dirty, st.filled = k.plru[s], 0, 0
		k.replaySet(&st, warm)
		filled := st.filled
		st.hits, st.writebacks = 0, 0
		k.replaySet(&st, measured)
		k.plru[s] = st.word
		misses := uint64(len(measured)) - st.hits
		res.Accesses += uint64(len(measured))
		res.Hits += st.hits
		res.Misses += misses
		// Every miss either fills an empty way or evicts.
		res.Evictions += misses - uint64(st.filled-filled)
		res.Writebacks += st.writebacks
		for _, r := range measured {
			res.Writes += uint64(r & 1)
		}
	}
	k.stats = res.Stats
	return res
}

// setState is one set's replacement state during ReplayGrouped, plus the
// hit and write-back counts of the records replayed into it. Ways fill in
// order and nothing invalidates them, so the valid ways are always the
// first filled ones. The set's tags sit in tags, with the same one-byte
// probe filter as the stream-order kernel in sig (see Kernel.sig).
type setState struct {
	word, dirty      uint64
	filled           int
	hits, writebacks uint64
	tags             [plrutree.MaxWays]uint32
	sig              [plrutree.MaxWays / 8]uint64
}

// replaySet models recs, consecutive records of one set, against the set's
// state: access's state machine for one set, with the tree word, dirty mask
// and fill count in locals. Cold fills take the lowest invalid way, as
// access does, which here is way st.filled. The index masks (&(len-1)) are
// no-ops on valid ways; they let the compiler drop bounds checks.
func (k *Kernel) replaySet(st *setState, recs []uint32) {
	ops, vec, insPos, ways, sigWords := k.ops, k.vec, k.insPos, k.ways, k.sigWords
	word, dirty, filled := st.word, st.dirty, st.filled
	for _, r := range recs {
		tag, write := r>>1, uint64(r&1)
		probe := uint64(byte(tag)) * laneLSB
		w := -1
	probe:
		for j := 0; j < sigWords; j++ {
			z := st.sig[j&(len(st.sig)-1)] ^ probe
			for zb := (z - laneLSB) &^ z & laneMSB; zb != 0; zb &= zb - 1 {
				cand := j*8 + bits.TrailingZeros64(zb)>>3
				if cand < filled && st.tags[cand&(len(st.tags)-1)] == tag {
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
		if filled < ways {
			w = filled
			filled++
		} else {
			w = ops.Victim(word)
			st.writebacks += dirty >> w & 1
		}
		st.tags[w&(len(st.tags)-1)] = tag
		sw, shift := w>>3&(len(st.sig)-1), uint(w&7)*8
		st.sig[sw] = st.sig[sw]&^(0xFF<<shift) | uint64(byte(tag))<<shift
		dirty = dirty&^(1<<w) | write<<w
		word = ops.Set(word, w, insPos)
	}
	st.word, st.dirty, st.filled = word, dirty, filled
}
