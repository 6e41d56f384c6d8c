package cache

import (
	"gippr/internal/batchreplay"
	"gippr/internal/plrutree"
	"gippr/internal/trace"
)

// treeExposer is the accessor the tree-PLRU policy family provides for its
// per-set trees (policy.PLRU and policy.GIPPR both have it). The batched
// fast path uses it to seed the kernel's packed state words from the policy
// and to write the final state back, so a kernel replay is equivalent to the
// scalar path even for callers that reuse a policy object across replays —
// the policy sees exactly the tree mutations Cache.Access would have caused.
type treeExposer interface {
	Tree(set uint32) *plrutree.Tree
}

// PackedReplay is an engaged batched fast path for one (geometry, policy)
// pair: the kernel plus the bookkeeping needed to keep the policy object's
// own state coherent. Obtain one with NewPackedReplay; call Finish after the
// last access to write replacement state back to the policy.
type PackedReplay struct {
	K    *batchreplay.Kernel
	pol  treeExposer
	sets int
}

// NewPackedReplay builds a batchreplay kernel modeling cfg under pol. It
// engages only when the policy opts in via batchreplay.Packable (and is not
// also a Bypasser — bypass decisions are outside the kernel's model), the
// vector matches the geometry, and the associativity is in the packed-tree
// domain; ok=false means the caller must take the scalar path. The paths
// are interchangeable: Stats, telemetry events and final policy state are
// bit-identical either way.
func NewPackedReplay(cfg Config, pol Policy) (*PackedReplay, bool) {
	pk, ok := pol.(batchreplay.Packable)
	if !ok {
		return nil, false
	}
	if _, bypass := pol.(Bypasser); bypass {
		return nil, false
	}
	vec, ok := pk.PackedIPV()
	if !ok {
		return nil, false
	}
	te, ok := pol.(treeExposer)
	if !ok || !batchreplay.Supported(cfg.Ways) || len(vec) != cfg.Ways+1 {
		return nil, false
	}
	sets := cfg.Sets()
	var sampled []bool
	if cfg.SampleShift > 0 {
		sampled = make([]bool, sets)
		for set := 0; set < sets; set++ {
			sampled[set] = cfg.InSample(uint32(set))
		}
	}
	k := batchreplay.New(sets, cfg.Ways, cfg.blockShift(), sampled, vec)
	for set := 0; set < sets; set++ {
		k.SetPLRUBits(set, te.Tree(uint32(set)).Bits())
	}
	return &PackedReplay{K: k, pol: te, sets: sets}, true
}

// Finish writes the kernel's final tree-PLRU state back into the policy,
// leaving the policy object exactly as a scalar replay would have.
func (p *PackedReplay) Finish() {
	for set := 0; set < p.sets; set++ {
		p.pol.Tree(uint32(set)).SetBits(p.K.PLRUBits(set))
	}
}

// Replay runs stream through the kernel with the ReplayStream protocol (warm
// on the first warm records, then measure) and finishes: the packed half
// of ReplayStreamTel.
func (p *PackedReplay) Replay(stream []trace.Record, warm int) ReplayStats {
	r := p.K.Replay(stream, warm)
	p.Finish()
	return replayStats(r)
}

// ReplayGrouped is Replay over the stream's set-grouped layout (built by
// batchreplay.Group for this geometry and warm length): the same stats and
// final policy state, computed one set at a time. It cannot carry
// telemetry; see batchreplay.Kernel.ReplayGrouped.
func (p *PackedReplay) ReplayGrouped(g *batchreplay.Grouped) ReplayStats {
	r := p.K.ReplayGrouped(g)
	p.Finish()
	return replayStats(r)
}

// Group builds stream's set-grouped layout for cfg's geometry (sets, ways
// and block size) and the given warm length, or returns nil when the stream
// cannot be grouped (a tag wider than 31 bits); see batchreplay.Group.
// cfg.Ways must be in the kernel's domain (batchreplay.Supported).
func Group(stream []trace.Record, cfg Config, warm int) *batchreplay.Grouped {
	return batchreplay.Group(stream, cfg.Sets(), cfg.Ways, cfg.blockShift(), warm)
}

func replayStats(r batchreplay.Result) ReplayStats {
	return ReplayStats{
		Accesses:     r.Accesses,
		Hits:         r.Hits,
		Misses:       r.Misses,
		Instructions: r.Instructions,
	}
}
