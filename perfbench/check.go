package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"

	"gippr/internal/cpu"
	"gippr/internal/experiments"
	"gippr/internal/stats"
	"gippr/internal/workload"
)

// reference.json maps "<workload>/<records>/<seed>" to the digest of every
// simulated statistic the first unit of work of that run produces. The seed
// is "*" for workloads whose inputs do not depend on it. A speed-only
// change must leave each digest identical.
//
//go:embed reference.json
var referenceJSON []byte

// seedFree lists the workloads whose simulated inputs are the suite's own
// streams, identical for every benchmark seed.
var seedFree = map[string]bool{"grid-cold": true, "policy-grid": true}

func referenceKey(cfg config) string {
	seed := strconv.FormatUint(cfg.Seed, 10)
	if seedFree[cfg.Workload] {
		seed = "*"
	}
	return fmt.Sprintf("%s/%d/%s", cfg.Workload, cfg.Records, seed)
}

func loadReferences() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkReference compares the run's digest with the stored one. Seeds
// without a stored digest rely on the engine-identity checks alone.
func (o *outcome) checkReference(cfg config) {
	refs, err := loadReferences()
	if err != nil {
		o.gate.check(false, 1, "%v", err)
		return
	}
	key := referenceKey(cfg)
	if want, ok := refs[key]; ok {
		o.gate.check(o.digest == want, 1, "digest %s of %s differs from reference %s", o.digest, key, want)
	}
}

// recordReference stores the digest of this run in the source reference.json
// (run from the repository root or from this directory). It merges into the
// file on disk, not the copy built in, so that several recordings in a row
// all keep their digests.
func recordReference(cfg config, digest string) error {
	path := "perfbench/reference.json"
	if _, err := os.Stat(path); err != nil {
		path = "reference.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	refs := map[string]string{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	refs[referenceKey(cfg)] = digest
	if data, err = json.MarshalIndent(refs, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest accumulates simulated statistics in their exact text form.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(fields ...string) {
	for _, f := range fields {
		d.h.Write([]byte(f))
		d.h.Write([]byte{0})
	}
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// g17 is the exact text form every float statistic is compared in.
func g17(x float64) string { return strconv.FormatFloat(x, 'g', 17, 64) }

func u(x uint64) string { return strconv.FormatUint(x, 10) }

func (d *digest) cells(cells []experiments.GridCell) {
	for _, c := range cells {
		d.add(c.Workload, c.Policy, g17(c.MPKI), g17(c.HitPct), g17(c.IPC), u(c.Misses), u(c.Accesses))
	}
}

// cellFromReplays recomputes a grid cell from standalone cpu.WindowReplay
// runs of the spec on each of the workload's captured phase streams,
// aggregated with the expressions experiments.GridCell documents. It is the
// engine identity a grid cell must satisfy bit for bit.
func cellFromReplays(lab *experiments.Lab, spec experiments.Spec, w workload.Workload) experiments.GridCell {
	cell := experiments.GridCell{Workload: w.Name, Policy: spec.Label}
	n := len(w.Phases)
	mpkis, hitrs, ipcs, wts := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for pi, st := range lab.Streams(w) {
		warm := int(float64(len(st.Records)) * lab.Scale.WarmFrac)
		pol := spec.New(w.Name, lab.Cfg.Sets(), lab.Cfg.Ways)
		res := cpu.WindowReplay(st.Records, lab.Cfg, pol, warm, cpu.DefaultWindowModel())
		mpkis[pi] = stats.MPKI(res.Misses, res.Instructions)
		hitrs[pi] = 100 * float64(res.Hits) / float64(max(res.Accesses, 1))
		ipcs[pi] = float64(res.Instructions) / res.Cycles
		wts[pi] = w.Phases[pi].Weight
		cell.Misses += res.Misses
		cell.Accesses += res.Accesses
	}
	cell.MPKI = stats.WeightedMean(mpkis, wts)
	cell.HitPct = stats.WeightedMean(hitrs, wts)
	cell.IPC = stats.WeightedMean(ipcs, wts)
	return cell
}

// distinctShare is the share of workloads whose cells do not all report the
// same MPKI. cells are workload-major with nSpecs cells per workload.
func distinctShare(cells []experiments.GridCell, nSpecs int) float64 {
	workloads, distinct := 0, 0
	for i := 0; i+nSpecs <= len(cells); i += nSpecs {
		workloads++
		for _, c := range cells[i+1 : i+nSpecs] {
			if c.MPKI != cells[i].MPKI {
				distinct++
				break
			}
		}
	}
	return float64(distinct) / float64(max(workloads, 1))
}

// checkEviction is the eviction guard: a grid whose policies agree on
// almost every workload was too short for the LLC to evict, and measures
// capture and bookkeeping instead of replacement.
func checkEviction(g *gate, share, floor float64) {
	g.check(share >= floor, 1, "eviction guard: policies differ on %.3f of workloads, below the floor %.3f", share, floor)
}
