// Package perfgate is the continuous-benchmarking subsystem: it builds
// each benchmark suite's test binary from a base revision and from the
// working tree, runs the two alternately on the same machine, and gates
// on metrics whose per-pair ratios show, by a one-sided sign test, a
// worsening beyond a practical threshold. DESIGN.md §8.5 documents the
// policy; `make bench-gate` / `fxabench -perfgate` run it.
//
// The package splits into three layers:
//
//   - parse.go: turn `go test -bench` output into per-benchmark,
//     per-unit sample vectors.
//   - run.go: export the base revision with `git archive`, build both
//     test binaries, and run them in alternating pairs, one process per
//     sample, teeing the raw output for CI artifacts.
//   - gate.go: the paired comparison and verdicts, rendered as a
//     regression table through internal/report.
package perfgate

import "fmt"

// SuiteSpec names one benchmark suite the gate knows how to run: a Go
// package and a benchmark regexp.
type SuiteSpec struct {
	Name    string // short name used by -suite and in reports
	Pkg     string // package path relative to the module root
	Pattern string // -bench regexp
}

// Suites lists the gated benchmark suites in run order. These cover the
// three performance contracts of DESIGN.md §§8.2-8.3: the cycle-level
// hot loop (allocation discipline), the functional fast-forward path and
// O(1) snapshots, and the end-to-end sampled-simulation pipeline.
var Suites = []SuiteSpec{
	{Name: "core", Pkg: "./internal/core", Pattern: "^BenchmarkCore"},
	{Name: "emu", Pkg: "./internal/emu", Pattern: "^(BenchmarkEmu|BenchmarkMemoryClone|BenchmarkMachineClone)"},
	{Name: "sampling", Pkg: "./internal/sampling", Pattern: "^BenchmarkSamplingEndToEnd"},
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
