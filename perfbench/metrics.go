package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit; the self-test holds
// these tables equal to BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the simulator sees, reported by
// untraced runs of every workload. README.md defines each per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
}

// replayPolicies are the policies whose scalar or batched replay cost the
// probes time one by one.
var replayPolicies = []string{"lru", "plru", "giplr", "gippr", "4-dgippr", "drrip", "pdp", "ship", "mslru", "dip"}

// layerDefs are the per-layer metrics reported by traced runs.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_ns_per_ref", "ns/ref"},
		{"cache.capture_ns_per_ref", "ns/ref"},
		{"cache.capture_alloc_mb", "MB"},
		{"cache.llc_filter_ratio", "ratio"},
	}
	for _, p := range replayPolicies {
		defs = append(defs, metricDef{"policy." + p + ".replay_ns_per_access", "ns/access"})
	}
	return append(defs,
		metricDef{"batchreplay.access_share", "ratio"},
		metricDef{"cpu.window_ns_per_instr", "ns/instr"},
		metricDef{"experiments.capture_s", "s"},
		metricDef{"experiments.replay_s", "s"},
		metricDef{"experiments.aggregate_ms", "ms"},
		metricDef{"experiments.policy_distinct_share", "ratio"},
		metricDef{"parallel.speedup", "x"},
		metricDef{"ga.eval_ms_p50", "ms"},
		metricDef{"stackdist.ns_per_access", "ns/access"},
		metricDef{"explain.diff_ms_p50", "ms"},
		metricDef{"resultstore.put_ms_p50", "ms"},
		metricDef{"resultstore.get_ms_p50", "ms"},
		metricDef{"resultstore.entry_kb", "KB"},
		metricDef{"serve.submit_ms_p50", "ms"},
		metricDef{"serve.result_ms_p50", "ms"},
		metricDef{"serve.result_kb", "KB"},
		metricDef{"serve.queue_wait_ms_p50", "ms"},
		metricDef{"serve.exec_ms_p50", "ms"},
		metricDef{"serve.store_hit_ratio", "ratio"},
		metricDef{"serve.heap_growth_kb_per_job", "KB"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// outcome is what one workload run measured.
type outcome struct {
	setup []time.Duration // one per set-up repetition
	// units split the timed phase into pieces of measured work (grid passes,
	// GA iterations, one-second windows of served jobs). Rates are the
	// median over units, so a burst of load from outside the benchmark
	// moves one unit, not the result.
	units []unit
	// concurrency is how many pieces of a unit's work run at once (a grid
	// pass's rows run on every worker, and its unit's time is their sum);
	// rates scale the median unit by it.
	concurrency int
	// allocs holds the bytes allocated per unit of work: one grid or GA
	// iteration, or one served job.
	allocs   []uint64
	heapLive uint64          // live heap after GC at the end of the timed phase
	jobs     []time.Duration // cold results: request until result
	hits     []time.Duration // results answered from a memo or the store
	gate     gate
	digest   string   // digest of the simulated statistics of the first unit of work
	info     []string // printed with the metrics, for reading a run
	// layer holds the per-layer metrics the workload measures itself; the
	// probes fill in the rest.
	layer map[string]float64
}

func newOutcome() *outcome { return &outcome{concurrency: 1, layer: map[string]float64{}} }

// unit is one piece of the timed phase: its host time, the simulated
// instructions replayed in it and the results it completed.
type unit struct {
	d     time.Duration
	instr uint64
	done  int
}

// gate counts checked outputs and the ones that failed a check.
type gate struct {
	attempted, failed int
	notes             []string
}

// check records n outputs; when ok is false they all count as failed.
func (g *gate) check(ok bool, n int, format string, args ...any) {
	g.attempted += n
	if !ok {
		g.failed += n
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) endToEnd() map[string]metric {
	vals := map[string]float64{
		"setup_s":          median(seconds(o.setup)),
		"sim_minstr_per_s": o.rate(func(u unit) float64 { return float64(u.instr) / 1e6 }),
		"alloc_mb":         median(floats(o.allocs)) / 1e6,
		"heap_live_mb":     float64(o.heapLive) / 1e6,
		"job_ms_p50":       percentile(millis(o.jobs), 50),
		"job_ms_p90":       percentile(millis(o.jobs), 90),
		"hit_ms_p50":       percentile(millis(o.hits), 50),
		"hit_ms_p90":       percentile(millis(o.hits), 90),
		"jobs_per_s":       o.rate(func(u unit) float64 { return float64(u.done) }),
	}
	return collect(endToEndDefs, vals)
}

// rate is the median over units of amount per host second, times the
// number of a unit's pieces that run at once.
func (o *outcome) rate(amount func(unit) float64) float64 {
	rates := make([]float64, len(o.units))
	for i, u := range o.units {
		rates[i] = amount(u) / u.d.Seconds()
	}
	return median(rates) * float64(o.concurrency)
}

// throughput is the results (rows, evaluations or served jobs) completed
// per host second over the whole timed phase, scaled like rate.
func (o *outcome) throughput() float64 {
	var done int
	var d time.Duration
	for _, u := range o.units {
		done, d = done+u.done, d+u.d
	}
	return float64(done) / d.Seconds() * float64(o.concurrency)
}

func layerMetrics(vals map[string]float64) map[string]metric { return collect(layerDefs, vals) }

// collect keeps exactly the defined metrics. A missing or non-finite value
// is a benchmark defect, so it panics rather than reporting a made-up
// number.
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("perfbench: metric %s has no finite value (%v)", d.name, v))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func floats(xs []uint64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// allocBytes returns the bytes allocated on the heap since the process
// started.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
