package main

import "sort"

// workloadFunc runs one workload: set-up, the timed phase and its
// correctness checks. tr is nil on untraced runs.
type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

// workloads are the benchmark's workloads by name. BENCHMARK.json lists
// evolve and serve-mix, whose runs stay steady enough for its bounds on a
// shared host. grid-cold and policy-grid run the same way from the command
// line, for comparing commits on a quiet machine: their memory-bound
// replays follow the host's load, so their runs spread too far to gate a
// change. README.md says why each exists.
var workloads = map[string]workloadFunc{
	"grid-cold":   gridCold,
	"policy-grid": policyGrid,
	"evolve":      evolve,
	"serve-mix":   serveMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
