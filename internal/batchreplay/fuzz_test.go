package batchreplay_test

import (
	"fmt"
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// FuzzBatchedReplayConsistency drives arbitrary record streams and
// geometries through the batched kernel and the scalar ReplayStream path
// and requires bit-identical results: the hit/miss/access triple (and hence
// MPKI), the full telemetry sink with its event-ordered histograms, and the
// final policy tree state. The input encodes the stream as (addr byte, gap
// byte) pairs — the FuzzMultiRunConsistency convention — plus geometry
// selectors: associativity and set-count exponents, an optional sampling
// shift, a warm length, and a seed that derives the IPV. Every byte of
// divergence the fuzzer can find is a kernel bug by definition; the scalar
// path is the semantic reference.
func FuzzBatchedReplayConsistency(f *testing.F) {
	f.Add([]byte{0, 1, 64, 1, 128, 2, 0, 1}, uint8(1), uint8(2), uint8(0), uint8(2), uint64(0))
	f.Add([]byte{7, 3, 7, 3, 9, 1, 200, 5, 13, 2}, uint8(2), uint8(0), uint8(1), uint8(0), uint64(0x1234))
	f.Add([]byte{255, 255, 0, 0, 128, 128, 64, 9}, uint8(0), uint8(3), uint8(0), uint8(4), uint64(99))
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}, uint8(5), uint8(1), uint8(1), uint8(7), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, waysExp, setsExp, shiftByte, warmByte uint8, vecSeed uint64) {
		if len(data) < 2 || len(data) > 1024 {
			t.Skip()
		}
		ways := 2 << (waysExp % 6) // 2..64, the full packed-tree domain
		sets := 1 << (setsExp % 4) // 1..8 sets so tiny caches still evict
		stream := make([]trace.Record, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			stream = append(stream, trace.Record{
				Addr:  uint64(data[i]) * 64,
				Gap:   uint32(data[i+1]%64) + 1,
				Write: data[i]&1 == 1,
			})
		}
		cfg := cache.Config{Name: "fz", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64,
			HitLatency: 30}
		if shift, err := cfg.CheckSampleShift(int(shiftByte % 4)); err == nil {
			cfg.SampleShift = shift
		}
		warm := int(warmByte) % (len(stream) + 1)
		vec := ipv.New(ways)
		s := vecSeed
		for i := range vec {
			s = s*6364136223846793005 + 1442695040888963407
			vec[i] = int(s>>33) % ways
		}

		fast := policy.NewGIPPR(sets, ways, vec)
		slow := policy.NewGIPPR(sets, ways, vec)
		var fastSink, slowSink telemetry.Sink
		fastRes := cache.ReplayStreamTel(stream, cfg, fast, warm, &fastSink)
		slowRes := cache.ReplayStreamTel(stream, cfg, scalarOnly{slow}, warm, &slowSink)

		if fastRes != slowRes {
			t.Fatalf("kernel diverged from scalar:\nkernel %+v\nscalar %+v\ncfg %+v vec %v warm %d",
				fastRes, slowRes, cfg, vec, warm)
		}
		if !reflect.DeepEqual(&fastSink, &slowSink) {
			t.Fatalf("telemetry sinks diverged:\nkernel %+v\nscalar %+v\ncfg %+v vec %v warm %d",
				fastSink, slowSink, cfg, vec, warm)
		}
		for set := 0; set < sets; set++ {
			if fb, sb := fast.Tree(uint32(set)).Bits(), slow.Tree(uint32(set)).Bits(); fb != sb {
				t.Fatalf("set %d final tree state %#x != scalar %#x (cfg %+v vec %v warm %d)",
					set, fb, sb, cfg, vec, warm)
			}
		}
	})
}

// FuzzGroupedReplayConsistency holds the set-grouped replay to the
// stream-order kernel and to scalar Cache.Access on arbitrary streams and
// geometries: every counter, the measured instructions and every final tree
// word must agree. The input is FuzzBatchedReplayConsistency's, plus a
// high-address byte that lifts some records' tags past 31 bits; a stream
// with such a tag must refuse to group, and any other stream must group.
// A span byte, when nonzero, folds the addresses onto ways-1 to ways+2
// distinct blocks per set, so that the sets' pre-eviction prefixes end at
// and around their boundary: a set that touches at most ways distinct
// blocks is probe-free throughout.
func FuzzGroupedReplayConsistency(f *testing.F) {
	f.Add([]byte{0, 1, 64, 1, 128, 2, 0, 1}, uint8(1), uint8(2), uint8(0), uint8(2), uint64(0), uint8(0), uint8(0))
	f.Add([]byte{7, 3, 7, 3, 9, 1, 200, 5, 13, 2}, uint8(2), uint8(0), uint8(1), uint8(0), uint64(0x1234), uint8(0), uint8(0))
	f.Add([]byte{255, 255, 0, 0, 128, 128, 64, 9}, uint8(0), uint8(3), uint8(3), uint8(4), uint64(99), uint8(3), uint8(0))
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}, uint8(5), uint8(1), uint8(2), uint8(7), uint64(7), uint8(1), uint8(0))
	// Prefix boundaries: two ways, one set, three distinct blocks (span
	// 2); then two sets of four ways touching exactly four blocks each
	// (span 1), written on first touch; then a sampled 4-set cache.
	f.Add([]byte{0, 1, 1, 2, 0, 3, 2, 1, 1, 1, 0, 2, 2, 1}, uint8(0), uint8(0), uint8(0), uint8(3), uint64(5), uint8(0), uint8(2))
	f.Add([]byte{1, 1, 3, 1, 5, 1, 7, 1, 9, 1, 11, 1, 13, 1, 15, 1, 0, 2, 2, 2, 4, 2, 6, 2}, uint8(1), uint8(1), uint8(0), uint8(8), uint64(11), uint8(0), uint8(1))
	f.Add([]byte{3, 1, 9, 4, 27, 2, 81, 7, 243, 1, 3, 3, 9, 9, 27, 5, 81, 1, 243, 8}, uint8(1), uint8(2), uint8(1), uint8(4), uint64(3), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, waysExp, setsExp, shiftByte, warmByte uint8, vecSeed uint64, high, span uint8) {
		if len(data) < 2 || len(data) > 1024 {
			t.Skip()
		}
		ways := 2 << (waysExp % 6)
		sets := 1 << (setsExp % 4)
		stream := make([]trace.Record, 0, len(data)/2)
		wide := false
		blocks := 256
		if span != 0 {
			blocks = sets * (ways - 1 + int(span%4))
		}
		for i := 0; i+1 < len(data); i += 2 {
			addr := uint64(int(data[i])%blocks) * 64
			// Every high-th record gets address bit 40+ set: with at most 8
			// sets, its tag then needs more than 31 bits.
			if high != 0 && (i/2)%int(high) == 0 {
				addr |= uint64(data[i+1]) << 40
				wide = wide || data[i+1] != 0
			}
			stream = append(stream, trace.Record{
				Addr:  addr,
				Gap:   uint32(data[i+1]%64) + 1,
				Write: data[i]&1 == 1,
			})
		}
		cfg := cache.Config{Name: "fz", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64,
			HitLatency: 30}
		if shift, err := cfg.CheckSampleShift(int(shiftByte % 4)); err == nil {
			cfg.SampleShift = shift
		}
		warm := int(warmByte) % (len(stream) + 2)
		vec := ipv.New(ways)
		s := vecSeed
		for i := range vec {
			s = s*6364136223846793005 + 1442695040888963407
			vec[i] = int(s>>33) % ways
		}
		r, ok := replayThree(t, stream, cfg, vec, warm)
		if ok == wide {
			t.Fatalf("grouped = %v for a stream with wide tags = %v", ok, wide)
		}
		if !ok {
			return
		}
		r.check(t, fmt.Sprintf("cfg %+v vec %v warm %d", cfg, vec, warm))
		// The prefixes cover every record exactly when no set touches more
		// than ways distinct blocks.
		distinct := make([]map[uint64]bool, sets)
		fits := true
		for _, rec := range stream {
			b := rec.Addr / 64
			set := b % uint64(sets)
			if distinct[set] == nil {
				distinct[set] = map[uint64]bool{}
			}
			distinct[set][b] = true
			fits = fits && len(distinct[set]) <= ways
		}
		pf := cache.Group(stream, cfg, warm).ProbeFree()
		if pf > len(stream) || (pf == len(stream)) != fits {
			t.Fatalf("%d of %d records probe-free; every set within ways = %v", pf, len(stream), fits)
		}
	})
}
