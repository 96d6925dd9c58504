// Package perfgate is the continuous-benchmarking subsystem: it runs the
// repository's benchmark suites with repetitions, compares the measured
// distributions against schema-versioned baselines checked into the repo
// (BENCH_core.json, BENCH_emu.json, BENCH_sampling.json), and gates on
// regressions that are both statistically significant (one-sided
// Mann-Whitney U) and larger than a practical threshold. DESIGN.md §8.5
// documents the policy; `make bench-gate` / `fxabench -perfgate` run it.
//
// The package splits into four layers:
//
//   - parse.go: turn `go test -bench` output into per-benchmark,
//     per-unit sample vectors (warm-up repetitions discarded).
//   - run.go: execute a suite as a `go test` subprocess with -count
//     repetitions, teeing the raw output for CI artifacts.
//   - baseline.go: the schema-versioned JSON baseline format, with
//     stale-schema rejection and a refresh path.
//   - gate.go: the statistical comparison and verdicts, rendered as a
//     regression table through internal/report.
package perfgate

import "fmt"

// SuiteSpec names one benchmark suite the gate knows how to run: a Go
// package, a benchmark regexp, and the baseline file it is judged
// against.
type SuiteSpec struct {
	Name     string // short name used by -suite and in reports
	Pkg      string // package path relative to the module root
	Pattern  string // -bench regexp
	Baseline string // baseline file name, relative to the baseline dir
}

// Suites lists the gated benchmark suites in run order. These cover the
// three performance contracts of DESIGN.md §§8.2-8.3: the cycle-level
// hot loop (allocation discipline), the functional fast-forward path and
// O(1) snapshots, and the end-to-end sampled-simulation pipeline.
var Suites = []SuiteSpec{
	{
		Name:     "core",
		Pkg:      "./internal/core",
		Pattern:  "^BenchmarkCore",
		Baseline: "BENCH_core.json",
	},
	{
		Name:     "emu",
		Pkg:      "./internal/emu",
		Pattern:  "^(BenchmarkEmu|BenchmarkMemoryClone|BenchmarkMachineClone)",
		Baseline: "BENCH_emu.json",
	},
	{
		Name:     "sampling",
		Pkg:      "./internal/sampling",
		Pattern:  "^BenchmarkSamplingEndToEnd",
		Baseline: "BENCH_sampling.json",
	},
}

// SuiteByName resolves a -suite argument.
func SuiteByName(name string) (SuiteSpec, error) {
	for _, s := range Suites {
		if s.Name == name {
			return s, nil
		}
	}
	return SuiteSpec{}, fmt.Errorf("unknown suite %q (valid: core, emu, sampling, all)", name)
}
