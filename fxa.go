// Package fxa is the public API of the FXA reproduction: a cycle-level
// simulator of the Front-end eXecution Architecture (Shioya, Goshima, Ando
// — MICRO 2014) together with the baseline processors it is evaluated
// against, the synthetic SPEC CPU 2006 proxy workloads, and the
// energy/area model used to reproduce the paper's figures.
//
// Quick start:
//
//	w, _ := fxa.WorkloadByName("libquantum")
//	res, err := fxa.Run(ctx, fxa.Spec{Model: fxa.HalfFX(), Workload: w, MaxInsts: 300_000})
//	fmt.Println(res.Counters.IPC(), res.Counters.IXURate())
//
// Run is the one entry point for a single simulation; Spec's Warmup adds
// the paper's functional skip before the measured window, Trace runs a
// caller-built stream (an assembled program, a compiled kernel), and
// IntervalInsts/OnInterval collect interval metrics. Sample estimates a
// run by systematic sampling, and RunEvaluation, RunFigure11 and
// RunFigure1213 sweep the Section VI matrix and the IXU variants on a
// worker pool with an optional result cache.
//
// The five evaluation models of the paper (Section VI-B) are BIG, HALF,
// LITTLE, BIG+FX and HALF+FX; fxa.Models() returns all of them. See
// cmd/fxabench for the harness that regenerates every table and figure.
package fxa

import (
	"context"
	"fmt"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/sampling"
	"fxa/internal/sweep"
	"fxa/internal/workload"

	// Blank imports register the timing cores with the engine layer; the
	// public API never names a core package.
	_ "fxa/internal/core"
	_ "fxa/internal/inorder"
)

// SweepOptions configures the simulation-orchestration engine used by
// RunEvaluation and the figure sweeps: worker-pool size, result cache,
// error mode and the serialized progress-event callback. See
// internal/sweep.
type SweepOptions = sweep.Options

// SweepStats reports one engine run: jobs run, cache hits/misses,
// aggregate simulated instructions and throughput, and wall time.
type SweepStats = sweep.Stats

// SweepEvent is one serialized progress event; SweepOptions.OnEvent is
// always invoked from a single goroutine.
type SweepEvent = sweep.Event

// SweepJob is one unit of sweep work: a labelled, fingerprinted,
// self-contained simulation run. EvaluationJob builds the canonical one;
// external executors (internal/serve) run them through sweep.RunOne.
type SweepJob = sweep.Job

// SweepCache is the content-addressed on-disk result cache.
type SweepCache = sweep.Cache

// Re-exported sweep event kinds and error modes.
const (
	SweepEventStart = sweep.EventStart
	SweepEventDone  = sweep.EventDone
	SweepFailFast   = sweep.FailFast
	SweepCollectAll = sweep.CollectAll
)

// OpenSweepCache opens (creating if needed) a simulation result cache
// rooted at dir. Entries are keyed by a hash of the full model
// configuration, the workload parameters, the instruction budget and the
// simulator version (sweep.SimVersion), so any configuration or
// simulator change invalidates them.
func OpenSweepCache(dir string) (*SweepCache, error) { return sweep.OpenCache(dir) }

// Model is a processor configuration (a column of Table I).
type Model = config.Model

// Workload is a synthetic SPEC CPU 2006 proxy program description.
type Workload = workload.Params

// Result carries the statistics of one simulation run. It is the engine
// layer's schema-versioned result (engine.Result): JSON-serializable, with
// an optional per-interval metrics series (see Spec.IntervalInsts).
type Result = engine.Result

// Interval is one entry of a Result's interval-metrics series: the
// counter deltas over a stretch of roughly IntervalInsts committed
// instructions, plus an instantaneous ROB/IQ occupancy sample at the
// interval boundary. Summing every interval's counters reproduces the
// run's final counters exactly.
type Interval = engine.Interval

// The five evaluation models of Section VI-B, plus the dual-issue
// in-order pair of the extended big.LITTLE landscape.
var (
	Big    = config.Big
	Half   = config.Half
	Little = config.Little
	BigFX  = config.BigFX
	HalfFX = config.HalfFX
	Dual   = config.Dual
	DualSI = config.DualSI
)

// Models returns the five evaluation models in the paper's order.
func Models() []Model { return config.Models() }

// AllModels returns every named model across all registered core kinds:
// the paper's five plus DUAL-SI and DUAL (LITTLE's in-order pipeline with
// an INT/FP pairing rule on the second issue slot).
func AllModels() []Model { return config.AllModels() }

// ModelByName resolves "BIG", "HALF", "LITTLE", "BIG+FX", "HALF+FX",
// "DUAL-SI" or "DUAL".
func ModelByName(name string) (Model, error) { return config.ByName(name) }

// Workloads returns the 29 SPEC CPU 2006 proxies (12 INT + 17 FP).
func Workloads() []Workload { return workload.Catalog() }

// IntWorkloads returns the INT benchmark group.
func IntWorkloads() []Workload { return workload.INT() }

// FPWorkloads returns the FP benchmark group.
func FPWorkloads() []Workload { return workload.FPGroup() }

// CompiledWorkload is an FXK-authored kernel compiled with the bundled
// compiler; see internal/workload.Compiled.
type CompiledWorkload = workload.Compiled

// CompiledWorkloads returns the FXK kernel suite — compiled code whose
// register reuse resembles real binaries (EXPERIMENTS.md, deviation D1).
func CompiledWorkloads() []CompiledWorkload { return workload.CompiledCatalog() }

// CompiledWorkloadByName returns the named FXK kernel.
func CompiledWorkloadByName(name string) (CompiledWorkload, error) {
	c, ok := workload.CompiledByName(name)
	if !ok {
		return CompiledWorkload{}, fmt.Errorf("fxa: unknown compiled workload %q", name)
	}
	return c, nil
}

// WorkloadByName returns the named proxy.
func WorkloadByName(name string) (Workload, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("fxa: unknown workload %q", name)
	}
	return p, nil
}

// Spec describes one simulation run. The paper's methodology is a
// functional skip followed by a measured detailed window (Section VI-A
// skips 4G instructions and measures 100M); Warmup and MaxInsts are those
// two lengths.
type Spec struct {
	// Model is the processor configuration; its Kind selects the timing
	// core through the engine registry.
	Model Model

	// Workload is the proxy to run when Trace is nil: Warmup
	// instructions execute functionally (no timing), then at most
	// MaxInsts in detail. With Trace set, Warmup and MaxInsts are
	// ignored and Workload only names the run in errors.
	Workload Workload
	Warmup   uint64
	MaxInsts uint64

	// Trace, if non-nil, is the stream to simulate instead: an assembled
	// program (emu.NewStream(emu.New(prog), n)) or a compiled kernel
	// (CompiledWorkload.NewTrace(n)).
	Trace *emu.Stream

	// IntervalInsts > 0 attaches an interval series to the Result
	// (Result.Intervals): counter deltas cut roughly every IntervalInsts
	// committed instructions, partitioning the run exactly. OnInterval,
	// if non-nil, also receives each interval as it is cut, tail
	// included, on the simulating goroutine, so a server can stream the
	// series while the run is in flight.
	IntervalInsts uint64
	OnInterval    func(Interval)
}

// Run simulates s and returns the collected statistics. The timing model
// (out-of-order internal/core or in-order internal/inorder, which serves
// both in-order kinds) is resolved through the engine registry by
// s.Model.Kind. Cancelling ctx interrupts the simulation within a few
// thousand simulated cycles and returns ctx's error. A stream that faults
// mid-run (an emulator error) fails the run rather than returning a short
// Result. Errors name the model, and the workload when it has a name.
func Run(ctx context.Context, s Spec) (Result, error) {
	return run(ctx, s, nil)
}

// run is Run with ff (nil-safe) accounting the warmup's fast-forward: the
// path every sweep job takes.
func run(ctx context.Context, s Spec, ff *ffMeter) (Result, error) {
	trace := s.Trace
	var err error
	if trace == nil {
		if trace, err = newCellTrace(s.Workload, s.Warmup, s.MaxInsts, ff); err == nil {
			// The trace is this run's alone: its pages go to the next
			// cell's faults once the run is over.
			defer trace.M.Mem.Release()
		}
	}
	var res Result
	if err == nil {
		res, err = engine.Run(ctx, s.Model, trace, engine.Options{IntervalInsts: s.IntervalInsts, OnInterval: s.OnInterval})
	}
	if err != nil {
		name := s.Model.Name
		if s.Workload.Name != "" {
			name += " on " + s.Workload.Name
		}
		return Result{}, fmt.Errorf("fxa: %s: %w", name, err)
	}
	return res, nil
}

// SamplingConfig describes a systematic-sampling schedule — windows,
// window length, skip, detailed warm-up and confidence level (see
// internal/sampling).
type SamplingConfig = sampling.Config

// SamplingSummary aggregates a sampled simulation: per-window results and
// Student-t confidence intervals on IPC, branch MPKI and energy per
// instruction over the measured (warm-excluded) windows.
type SamplingSummary = sampling.Summary

// Sample estimates w's behaviour on m with systematic sampling: detailed
// windows separated by functional fast-forwards, far cheaper than one
// long detailed run, with per-metric confidence intervals as the accuracy
// signal. Cancelling ctx interrupts both the functional fast-forward and
// the in-flight detailed windows promptly.
func Sample(ctx context.Context, m Model, w Workload, cfg SamplingConfig) (SamplingSummary, error) {
	return sampling.Run(ctx, m, w, cfg)
}
