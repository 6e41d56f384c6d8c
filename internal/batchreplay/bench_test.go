package batchreplay_test

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/ipv"
	"gippr/internal/policy"
)

// BenchmarkKernelReplay compares the two kernel replays of one LLC-sized
// stream under GIPPR: stream order (Replay) and set by set from the
// stream's grouped layout (ReplayGrouped). The layout is built outside the
// timed region, as ga.Env builds it once per stream.
func BenchmarkKernelReplay(b *testing.B) {
	cfg := cache.L3Config
	stream := makeStream(1<<20, cfg, 3, 0xBE7C)
	warm := len(stream) / 3
	g := cache.Group(stream, cfg, warm)
	run := func(b *testing.B, replay func(pr *cache.PackedReplay)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr, _ := cache.NewPackedReplay(cfg, policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR))
			replay(pr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/record")
	}
	b.Run("stream-order", func(b *testing.B) { run(b, func(pr *cache.PackedReplay) { pr.Replay(stream, warm) }) })
	b.Run("grouped", func(b *testing.B) { run(b, func(pr *cache.PackedReplay) { pr.ReplayGrouped(g) }) })
}
