// Package batchreplay is the batched, branch-free LLC replay kernel behind
// cache.ReplayStream and cpu.MultiWindowReplay.
//
// The scalar replay path models one record at a time: Cache.Access scans a
// set's line structs with a short-circuiting compare loop, then the policy
// walks a plrutree.Tree node by node, branching on child direction at every
// level. That is the right shape for the general Policy interface — dueling
// policies read PSEL counters, PDP consults a reuse predictor — but for the
// two policies every grid, GA fitness call and served job spends most of its
// time in (PLRU and single-vector GIPPR), the whole per-record transition is
// a pure function of (tag array, valid bits, one plru state word, the IPV).
// This package exploits that:
//
//   - records are decoded in fixed-size blocks (BlockSize): block numbers
//     and set indices are computed up front into flat arrays, separating the
//     pointer-chasing-free decode from the state update;
//   - tag probes are two-level and mostly branch-free: one tag byte per way
//     is packed eight-to-a-uint64, a SWAR zero-byte scan over the xor with
//     the probe byte yields a candidate-way mask in a couple of word ops,
//     and only candidates (almost always zero or one) are verified against
//     the full tag array — the per-way compare loop is gone entirely;
//   - per-set metadata lives in packed uint64 words: a valid mask, a dirty
//     mask, and the k-1 tree-PLRU bits updated with plrutree.Packed's
//     mask-and-or tables instead of per-node walks.
//
// Equivalence contract: a Kernel models exactly the Cache.Access semantics
// for a policy whose behaviour is "IPV over tree-PLRU" (see Packable) — the
// same counters in the same order, the same telemetry event sequence
// (telemetry.Sink is order-sensitive through its access clock), the same
// victim choices, bit for bit. The differential battery in this package's
// tests, FuzzBatchedReplayConsistency, and the golden-MPKI suite all pin
// that contract; DESIGN.md §14 gives the argument.
package batchreplay

import (
	"fmt"
	"math/bits"

	"gippr/internal/plrutree"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// BlockSize is the number of trace records decoded per batch. 256 records
// keep the decode scratch (256 x 12 bytes) and the hit bitmap (4 words)
// comfortably inside L1 while amortizing loop overheads; block size only
// affects throughput, never results, because blocks are processed in stream
// order with no reordering inside or across them.
const BlockSize = 256

// laneLSB and laneMSB broadcast a byte lane's low and high bit across a
// uint64 — the building blocks of the SWAR signature scan.
const (
	laneLSB = 0x0101010101010101
	laneMSB = 0x8080808080808080
)

// HitBits is the per-block hit bitmap filled by AccessBlock: bit i set means
// record i of the block hit (or was skipped by set sampling, which the
// timing models treat as a hit — the same convention as Cache.Access's
// return value).
type HitBits [BlockSize / 64]uint64

// Bit reports record i's hit flag.
func (h *HitBits) Bit(i int) bool { return h[i>>6]>>(i&63)&1 == 1 }

// Packable is implemented by replacement policies whose behaviour is
// exactly "insertion/promotion vector over tree-PLRU": on a hit a block at
// tree position i moves to V[i], on a fill the incoming block is placed at
// V[k], the victim is the tree-PLRU block, and OnMiss/OnEvict have no
// observable effect. PackedIPV returns that vector (length ways+1) and
// ok=true; policies with any additional state or decision-making (dueling,
// bypass, predictors) must return ok=false so replays fall back to the
// scalar path. policy.PLRU (the all-zero vector) and policy.GIPPR implement
// it.
type Packable interface {
	PackedIPV() ([]int, bool)
}

// Stats mirrors cache.Stats field for field (batchreplay cannot import
// cache — cache imports this package to dispatch onto the kernel).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writes     uint64
	Writebacks uint64
	Skipped    uint64
}

// Result summarizes a Replay.
type Result struct {
	Stats
	// Instructions is the sum of record gaps in the measured window.
	Instructions uint64
}

// Supported reports whether the kernel can model a cache of the given
// associativity: a power of two in 2..plrutree.MaxWays, the domain of the
// packed tree tables.
func Supported(ways int) bool {
	return ways >= 2 && ways <= plrutree.MaxWays && ways&(ways-1) == 0
}

// Kernel holds the batched model of one set-associative cache under one
// packed IPV policy. Construct with New; a Kernel is single-goroutine, like
// the Cache it replaces.
type Kernel struct {
	sets       int
	ways       int
	setMask    uint64
	blockShift uint

	// Per-line state, allocated on the first AccessBlock (allocLines).
	tags  []uint64 // [set*ways+way]: full block number (tag+index)
	valid []uint64 // per set: way-indexed valid bitmask
	dirty []uint64 // per set: way-indexed dirty bitmask
	// Probe filter: one tag byte per way (the byte just above the set
	// index), packed eight ways to a word. A SWAR zero-byte scan of
	// sig^probe yields candidate ways; only candidates touch the full tag
	// array. False candidates (byte collisions, borrow artifacts of the
	// zero-byte detector) are weeded out by full-tag verification, so the
	// filter changes nothing observable.
	sigWords int
	sigShift uint
	sig      []uint64
	plru     []uint64 // per set: k-1 tree-PLRU bits (Tree.Bits layout)
	ops      *plrutree.Packed
	vec      []int  // promotion targets V[0..ways-1]
	insPos   int    // insertion position V[ways]
	sampled  []bool // nil at full fidelity; else per-set in-sample flags

	stats Stats
	tel   *telemetry.Sink
	// grouped is set once ReplayGrouped has run: the per-line arrays then
	// no longer describe the tree words, so the kernel takes no more
	// accesses.
	grouped bool

	// Decode scratch, reused across blocks so the steady state allocates
	// nothing.
	blockBuf [BlockSize]uint64
	setBuf   [BlockSize]uint32
}

// New returns a kernel for a cache of sets x ways lines with the given
// block-offset shift, per-set sampling flags (nil for full fidelity, else
// length sets — the caller shares cache.Config.InSample's precomputed
// table), and IPV (length ways+1, entries in 0..ways-1). It panics on
// malformed geometry or vector, mirroring the internal policy constructors;
// use Supported to probe the associativity domain first.
func New(sets, ways int, blockShift uint, sampled []bool, vec []int) *Kernel {
	if sets < 1 {
		panic(fmt.Sprintf("batchreplay: %d sets", sets))
	}
	if !Supported(ways) {
		panic(fmt.Sprintf("batchreplay: associativity %d is not a power of two in 2..%d", ways, plrutree.MaxWays))
	}
	if sampled != nil && len(sampled) != sets {
		panic(fmt.Sprintf("batchreplay: %d sampling flags for %d sets", len(sampled), sets))
	}
	if len(vec) != ways+1 {
		panic(fmt.Sprintf("batchreplay: vector has %d entries, want %d", len(vec), ways+1))
	}
	for i, e := range vec {
		if e < 0 || e >= ways {
			panic(fmt.Sprintf("batchreplay: vector entry %d is %d, outside 0..%d", i, e, ways-1))
		}
	}
	k := &Kernel{
		sets:       sets,
		ways:       ways,
		setMask:    uint64(sets - 1),
		blockShift: blockShift,
		sigWords:   (ways + 7) / 8,
		sigShift:   uint(bits.Len(uint(sets - 1))),
		plru:       make([]uint64, sets),
		ops:        plrutree.NewPacked(ways),
		vec:        append([]int(nil), vec[:ways]...),
		insPos:     vec[ways],
		sampled:    sampled,
	}
	return k
}

// allocLines allocates the per-line arrays on the first stream-order
// access. They are most of a kernel's footprint (the tag array alone is
// sets x ways x 8 bytes), and a grouped replay (ReplayGrouped) never needs
// them, so New leaves them out.
func (k *Kernel) allocLines() {
	if k.grouped {
		panic("batchreplay: stream-order access after a grouped replay")
	}
	k.tags = make([]uint64, k.sets*k.ways)
	k.valid = make([]uint64, k.sets)
	k.dirty = make([]uint64, k.sets)
	k.sig = make([]uint64, k.sets*k.sigWords)
}

// SetTelemetry attaches an event sink (nil detaches), sized for the modeled
// cache's line count — the same convention as Cache.SetTelemetry. The
// kernel emits the exact event sequence the scalar path would, so an
// attached sink ends up bit-identical to a scalar replay's.
func (k *Kernel) SetTelemetry(s *telemetry.Sink) {
	s.Attach(k.sets * k.ways)
	k.tel = s
}

// Stats returns the counters accumulated since the last ResetStats.
func (k *Kernel) Stats() Stats { return k.stats }

// PLRUBits returns set's packed tree-PLRU state word (Tree.Bits layout).
func (k *Kernel) PLRUBits(set int) uint64 { return k.plru[set] }

// SetPLRUBits overwrites set's packed tree-PLRU state word; bits outside
// the k-1 internal-node range are masked off, matching Tree.SetBits. The
// dispatch layer uses this pair to seed kernel state from a policy's trees
// and write the final state back.
func (k *Kernel) SetPLRUBits(set int, word uint64) {
	k.plru[set] = word & (uint64(1)<<k.ways - 2)
}

// ResetStats zeroes the counters and any attached telemetry, keeping cache
// contents and replacement state (the warm-up boundary convention of
// Cache.ResetStats).
func (k *Kernel) ResetStats() {
	k.stats = Stats{}
	k.tel.Reset()
}

// AccessBlock models up to BlockSize records (len(recs) must not exceed it)
// and fills hits with the per-record hit flags. Records are decoded up
// front — block numbers and set indices into flat arrays — then the state
// update walks the decoded block.
func (k *Kernel) AccessBlock(recs []trace.Record, hits *HitBits) {
	n := len(recs)
	if n > BlockSize {
		panic("batchreplay: block exceeds BlockSize")
	}
	if k.tags == nil {
		k.allocLines()
	}
	for i := 0; i < n; i++ {
		b := recs[i].Addr >> k.blockShift
		k.blockBuf[i] = b
		k.setBuf[i] = uint32(b & k.setMask)
	}
	*hits = HitBits{}
	for i := 0; i < n; i++ {
		if k.access(k.blockBuf[i], k.setBuf[i], recs[i].Write) {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
}

// access models one reference: the Cache.Access state machine with the
// policy callbacks inlined for IPV-over-tree-PLRU. Counter updates and
// telemetry events replicate the scalar order exactly — the sink's access
// clock makes reordering observable.
func (k *Kernel) access(block uint64, set uint32, write bool) bool {
	if k.sampled != nil && !k.sampled[set] {
		k.stats.Skipped++
		return true
	}
	k.stats.Accesses++
	if write {
		k.stats.Writes++
	}
	base := int(set) * k.ways
	valid := k.valid[set]
	sbase := int(set) * k.sigWords
	probe := uint64(byte(block>>k.sigShift)) * laneLSB
	hitWay := -1
	for j := 0; j < k.sigWords; j++ {
		z := k.sig[sbase+j] ^ probe
		// Zero-byte detect: flags every matching signature byte, plus the
		// occasional borrow artifact directly above a real match — full-tag
		// verification filters both collision kinds. A valid set holds at
		// most one copy of a block, so at most one candidate verifies.
		for zb := (z - laneLSB) &^ z & laneMSB; zb != 0; zb &= zb - 1 {
			cand := j*8 + bits.TrailingZeros64(zb)>>3
			if valid>>cand&1 == 1 && k.tags[base+cand] == block {
				hitWay = cand
				break
			}
		}
		if hitWay >= 0 {
			break
		}
	}
	if hitWay >= 0 {
		w := hitWay
		k.stats.Hits++
		if write {
			k.dirty[set] |= 1 << w
		}
		word := k.plru[set]
		if k.tel != nil {
			k.tel.Hit(base + w)
			from := k.ops.Position(word, w)
			k.tel.Promote(from, k.vec[from])
			k.plru[set] = k.ops.Set(word, w, k.vec[from])
			return true
		}
		from := k.ops.Position(word, w)
		k.plru[set] = k.ops.Set(word, w, k.vec[from])
		return true
	}
	k.stats.Misses++
	if k.tel != nil {
		k.tel.Miss()
	}
	var w int
	if invalid := ^valid & (uint64(1)<<k.ways - 1); invalid != 0 {
		// Cold fill: the scalar path takes the first invalid way in scan
		// order, which is the lowest clear valid bit.
		w = bits.TrailingZeros64(invalid)
	} else {
		w = k.ops.Victim(k.plru[set])
		k.stats.Evictions++
		dirtyBit := k.dirty[set] >> w & 1
		k.stats.Writebacks += dirtyBit
		if k.tel != nil {
			k.tel.Evict(base+w, dirtyBit == 1)
		}
	}
	k.tags[base+w] = block
	sw := sbase + w>>3
	shift := uint(w&7) * 8
	k.sig[sw] = k.sig[sw]&^(0xFF<<shift) | probe&0xFF<<shift
	k.valid[set] = valid | 1<<w
	if write {
		k.dirty[set] |= 1 << w
	} else {
		k.dirty[set] &^= 1 << w
	}
	if k.tel != nil {
		k.tel.Fill(base + w)
		k.tel.Insert(k.insPos)
	}
	k.plru[set] = k.ops.Set(k.plru[set], w, k.insPos)
	return false
}

// Replay drives a captured LLC stream through the kernel with the
// ReplayStreamTel protocol: the first warm records warm the model, stats
// and telemetry are then reset, and the remainder is measured. The result's
// Instructions is the sum of measured-window gaps.
func (k *Kernel) Replay(stream []trace.Record, warm int) Result {
	if warm > len(stream) {
		warm = len(stream)
	}
	var hits HitBits
	for off := 0; off < warm; off += BlockSize {
		end := off + BlockSize
		if end > warm {
			end = warm
		}
		k.AccessBlock(stream[off:end], &hits)
	}
	k.ResetStats()
	var res Result
	for off := warm; off < len(stream); off += BlockSize {
		end := off + BlockSize
		if end > len(stream) {
			end = len(stream)
		}
		blk := stream[off:end]
		k.AccessBlock(blk, &hits)
		for i := range blk {
			res.Instructions += uint64(blk[i].Gap)
		}
	}
	res.Stats = k.stats
	return res
}
