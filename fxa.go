// Package fxa is the public API of the FXA reproduction: a cycle-level
// simulator of the Front-end eXecution Architecture (Shioya, Goshima, Ando
// — MICRO 2014) together with the baseline processors it is evaluated
// against, the synthetic SPEC CPU 2006 proxy workloads, and the
// energy/area model used to reproduce the paper's figures.
//
// Quick start:
//
//	w, _ := fxa.WorkloadByName("libquantum")
//	res, err := fxa.Run(fxa.HalfFX(), w, 300_000)
//	fmt.Println(res.Counters.IPC(), res.Counters.IXURate())
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
// RunEvaluationSweep and the figure sweeps: worker-pool size, result
// cache, error mode and the serialized progress-event callback. See
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

// FFMode selects the interpreter the emulator runs on, both for a
// functional fast-forward and for the trace a detailed run consumes:
// FFFast uses the predecoded block-stepping loops (the default, ~5x faster
// for fast-forward, ~3x for traces), FFStep forces the single-instruction
// reference path for the whole simulation. The two are bit-identical;
// FFStep exists for differential testing and debugging.
type FFMode = emu.FFMode

// Re-exported fast-forward modes.
const (
	FFFast = emu.FFFast
	FFStep = emu.FFStep
)

// SetFFMode sets the process-wide default fast-forward mode used by all
// machines created afterwards (existing machines are unaffected).
func SetFFMode(m FFMode) { emu.SetDefaultFFMode(m) }

// Model is a processor configuration (a column of Table I).
type Model = config.Model

// Workload is a synthetic SPEC CPU 2006 proxy program description.
type Workload = workload.Params

// Result carries the statistics of one simulation run. It is the engine
// layer's schema-versioned result (engine.Result): JSON-serializable, with
// an optional per-interval metrics series (see RunTraceIntervals).
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

// RunCompiled simulates maxInsts instructions (0 = to completion) of an
// FXK kernel on model m.
func RunCompiled(m Model, c CompiledWorkload, maxInsts uint64) (Result, error) {
	trace, err := c.NewTrace(maxInsts)
	if err != nil {
		return Result{}, err
	}
	res, err := RunTrace(m, trace)
	if err != nil {
		return Result{}, fmt.Errorf("fxa: %s on %s: %w", m.Name, c.Name, err)
	}
	if terr := trace.Err(); terr != nil {
		// A trace that faulted mid-run (emulator error) truncates silently
		// from the timing model's point of view; surface it like Run and
		// RunWarm do.
		return Result{}, fmt.Errorf("fxa: %s trace: %w", c.Name, terr)
	}
	return res, nil
}

// WorkloadByName returns the named proxy.
func WorkloadByName(name string) (Workload, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("fxa: unknown workload %q", name)
	}
	return p, nil
}

// Run simulates maxInsts dynamic instructions of w on model m and returns
// the collected statistics. The timing model (out-of-order internal/core
// or in-order internal/inorder, which serves both in-order kinds) is
// resolved through the engine registry by m.Kind.
func Run(m Model, w Workload, maxInsts uint64) (Result, error) {
	trace, err := w.NewTrace(maxInsts)
	if err != nil {
		return Result{}, err
	}
	res, err := RunTrace(m, trace)
	if err != nil {
		return Result{}, fmt.Errorf("fxa: %s on %s: %w", m.Name, w.Name, err)
	}
	if terr := trace.Err(); terr != nil {
		return Result{}, fmt.Errorf("fxa: %s trace: %w", w.Name, terr)
	}
	return res, nil
}

// RunWarm is Run with a functional warmup: the first warmup instructions
// execute only on the emulator (no timing), mirroring the paper's
// 4G-instruction skip before its 100M-instruction measurement window.
func RunWarm(m Model, w Workload, warmup, maxInsts uint64) (Result, error) {
	trace, err := w.NewTraceWarm(warmup, maxInsts)
	if err != nil {
		return Result{}, err
	}
	res, err := RunTrace(m, trace)
	if err != nil {
		return Result{}, fmt.Errorf("fxa: %s on %s: %w", m.Name, w.Name, err)
	}
	if terr := trace.Err(); terr != nil {
		return Result{}, fmt.Errorf("fxa: %s trace: %w", w.Name, terr)
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
// signal.
func Sample(m Model, w Workload, cfg SamplingConfig) (SamplingSummary, error) {
	return SampleContext(context.Background(), m, w, cfg)
}

// SampleContext is Sample under a context: cancelling ctx interrupts both
// the functional fast-forward and the in-flight detailed windows promptly.
func SampleContext(ctx context.Context, m Model, w Workload, cfg SamplingConfig) (SamplingSummary, error) {
	return sampling.Run(ctx, m, w, cfg)
}

// RunTrace simulates an arbitrary dynamic instruction stream on model m.
// Use this to run programs assembled with internal/asm conventions via
// your own emulator setup. The timing model is looked up in the engine
// registry by m.Kind — no core package is named here.
func RunTrace(m Model, trace *emu.Stream) (Result, error) {
	return RunTraceContext(context.Background(), m, trace)
}

// RunTraceContext is RunTrace under a context: cancelling ctx interrupts
// the simulation within a few thousand simulated cycles and returns ctx's
// error.
func RunTraceContext(ctx context.Context, m Model, trace *emu.Stream) (Result, error) {
	return engine.Run(ctx, m, trace)
}

// RunTraceIntervals is RunTraceContext with interval-metrics collection:
// the returned Result carries a series of counter-delta snapshots cut
// roughly every intervalInsts committed instructions (Result.Intervals).
// The series partitions the run exactly — summing every interval's
// counters reproduces the final counters.
func RunTraceIntervals(ctx context.Context, m Model, trace *emu.Stream, intervalInsts uint64) (Result, error) {
	e, err := engine.New(m, trace)
	if err != nil {
		return Result{}, err
	}
	return engine.Drive(ctx, e, engine.Options{IntervalInsts: intervalInsts})
}

// RunTraceIntervalsStream is RunTraceIntervals with a live consumer:
// onInterval is invoked synchronously from the driving goroutine as each
// interval is cut, including the tail interval, so a serving layer can
// push the series over the wire while the simulation is still running.
// The returned Result carries the same series in Result.Intervals.
func RunTraceIntervalsStream(ctx context.Context, m Model, trace *emu.Stream, intervalInsts uint64, onInterval func(Interval)) (Result, error) {
	e, err := engine.New(m, trace)
	if err != nil {
		return Result{}, err
	}
	return engine.Drive(ctx, e, engine.Options{IntervalInsts: intervalInsts, OnInterval: onInterval})
}
