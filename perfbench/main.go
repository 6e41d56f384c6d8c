// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints, as its
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the workload runs with spans recorded around every
// timed call, followed by the layer probes, and the metrics are the
// per-layer ones. README.md in this directory explains each workload and
// which end-to-end metric each per-layer metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload evolve --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config sizes one run. The defaults are the benchmark; the self-test
// shrinks them.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool

	// Records is the number of memory references generated per workload
	// phase (experiments.Scale.PhaseRecords). It is large enough that the
	// 4 MB LLC evicts on most workloads, which the eviction guard checks.
	Records int
	// Workers bounds the compute goroutines: the Lab and GA fan-out, and
	// the daemon's job pool.
	Workers int
	// Clients is the number of closed-loop HTTP clients driving serve-mix.
	Clients int
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// MinJobs is the number of script jobs each serve-mix client completes
	// even past the deadline; their results form the reference digest.
	MinJobs int
	// GA sizing for one evolve iteration: SearchBatches random-search
	// requests of RandomIPVs vectors each, then a GA run.
	SearchBatches, RandomIPVs, GAPopulation, GAGenerations int
	// CheckReference compares digests with reference.json. Only the
	// benchmark's own sizes have references.
	CheckReference bool
	// OutDir receives span files and temporary result stores.
	OutDir string
}

// benchRecords is the per-phase reference count of every workload.
const benchRecords = 400_000

func defaultConfig() config {
	return config{
		Records:        benchRecords,
		Workers:        min(runtime.NumCPU(), 2),
		Clients:        2,
		SetupReps:      3,
		MinJobs:        16,
		SearchBatches:  4,
		RandomIPVs:     8,
		GAPopulation:   6,
		GAGenerations:  1,
		CheckReference: true,
	}
}

func main() {
	cfg := defaultConfig()
	var seed uint64
	var trace int
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", 40, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	record := flag.Bool("record-reference", false, "store this run's digest in reference.json instead of checking it")
	flag.Parse()

	run, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.Workload, cfg.Seed, cfg.Trace = *workloadName, seed, trace == 1
	if cfg.Trace {
		// A traced run is two runs, untraced then traced (see execute), so
		// each gets half the seconds; traced runs report no setup_s, so each
		// sets up once. A traced run then takes little longer than an
		// untraced one.
		cfg.Seconds /= 2
		cfg.SetupReps = 1
	}
	cfg.OutDir = os.Getenv("BENCH_OUT")
	if cfg.OutDir == "" {
		cfg.OutDir = filepath.Join(".bench_build", "perfbench")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	printHeader(os.Stdout, cfg)
	rep, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record {
		if err := recordReference(cfg, rep.digest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout)
}

// report is one run's result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string
	info   []string
	digest string
	spans  *tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and, when tracing, the layer probes, and turns
// their measurements into the reported metrics.
func execute(cfg config, run workloadFunc) (*report, error) {
	// The tracing overhead is measured, not modelled: a traced run first
	// runs the workload untraced with the same settings and seed, and
	// compares that run's throughput with its own.
	var plain *outcome
	var tr *tracer
	if cfg.Trace {
		untraced := cfg
		untraced.Trace = false
		var err error
		if plain, err = run(untraced, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	out, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	if plain != nil {
		out.gate.attempted += plain.gate.attempted
		out.gate.failed += plain.gate.failed
		out.gate.notes = append(out.gate.notes, plain.gate.notes...)
		out.gate.check(plain.digest == out.digest, 1, "untraced run's digest %s differs from the traced run's %s", plain.digest, out.digest)
	}
	if cfg.CheckReference {
		out.checkReference(cfg)
	}
	rep := &report{digest: out.digest, spans: tr}
	if cfg.Trace {
		layer, err := probeLayers(cfg, tr, out)
		if err != nil {
			return nil, err
		}
		layer["trace.overhead_pct"] = 100 * (plain.throughput()/out.throughput() - 1)
		rep.Metrics = layerMetrics(layer)
		if err := tr.write(filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = out.endToEnd()
	}
	rep.Attempted, rep.Failed, rep.notes, rep.info = out.gate.attempted, out.gate.failed, out.gate.notes, out.info
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// print writes the human-readable lines, then the JSON result line last.
func (r *report) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.spans != nil {
		r.spans.printSelfTimes(f)
	}
	for _, n := range r.info {
		fmt.Fprintln(f, "#", n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "# FAILED:", n)
	}
	fmt.Fprintf(f, "# failed_frac: %.6g (%d of %d)\n", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(f, string(line))
}

// elapsed reports whether a timed loop that began at start should stop.
func elapsed(start time.Time, cfg config) bool {
	return time.Since(start).Seconds() >= cfg.Seconds
}
