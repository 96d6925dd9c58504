// Package engine is the unified simulation-engine layer between the
// cycle-level timing cores and everything that drives them. The paper
// compares five models across two distinct timing substrates — the
// out-of-order (optionally FXA) core of internal/core and the in-order
// core of internal/inorder (LITTLE, and the DUAL/DUAL-SI pair that adds
// an INT/FP pairing rule) — and before this layer existed every
// caller (fxa.Run, internal/sampling, internal/biglittle, the cmd/
// tools) dispatched on config.CoreKind by hand while the two cores
// duplicated their trace-batching and deadlock-watchdog front halves.
//
// The engine layer provides:
//
//   - Engine, the interface any timing model plugs into: Run(ctx) for a
//     whole simulation, Step(nCycles) for bounded incremental driving,
//     and Result() for (idempotent, mid-run-safe) statistics assembly;
//   - a constructor registry keyed by config.CoreKind — the cores
//     register themselves from init, so adding a model kind needs only
//     an engine.Register call and no caller changes anywhere;
//   - Drive, the shared run loop: cancellation checked every CheckEvery
//     cycles (not per cycle, so the hot loop stays allocation- and
//     branch-clean) and optional interval-metrics collection;
//   - Run, New then Drive then the trace-fault check, releasing the
//     engine's buffers at the end: the entry point for every caller that
//     does not attach a Probe;
//   - the shared front-half building blocks TraceReader (batched trace
//     consumption) and Watchdog (deadlock detection);
//   - the schema-versioned Result/Interval types consumed by the sweep
//     cache, the golden suite and the reporting layer;
//   - Probe, the pipeline-event observer interface implemented by
//     internal/pipetrace.
package engine

import (
	"context"
	"errors"
	"fmt"

	"fxa/internal/config"
)

// Engine is one pluggable cycle-level simulation: a timing model bound
// to a model configuration and a dynamic-instruction trace.
type Engine interface {
	// Run simulates until the trace is exhausted and the pipeline
	// drains, returning the collected statistics. Cancelling ctx
	// interrupts the run within CheckEvery simulated cycles and returns
	// ctx's error. Implementations delegate to Drive.
	Run(ctx context.Context) (Result, error)

	// Step advances the simulation by at most nCycles cycles. It
	// returns done=true once the trace is exhausted and the pipeline
	// has drained (the simulation is complete), or an error when the
	// timing model wedges (see Watchdog). A done or failed engine must
	// not be stepped again.
	Step(nCycles int64) (done bool, err error)

	// Result assembles the statistics collected so far. It is
	// idempotent and safe to call mid-run — the interval collector
	// snapshots it between Step slices.
	Result() Result
}

// Aborter is an optional Engine extension: Abort releases every
// in-flight simulation resource after an interrupted run. Drive invokes
// it on cancellation so explicitly pooled engines (internal/core's uop
// pool) do not leak instances that were mid-pipeline when the run
// stopped; engines whose state is garbage-collected may omit it.
type Aborter interface {
	Abort()
}

// Releaser is an optional Engine extension: Release hands the engine's
// recyclable buffers (its memory hierarchy's cache arrays) to the engines
// built after it. Run calls it once Drive has returned, whatever Drive
// returned; the engine must not be stepped or asked for a Result again.
// Engines with nothing to recycle may omit it.
type Releaser interface {
	Release()
}

// LeakChecker is an optional Engine extension: LeakCheck verifies that a
// drained or aborted engine holds no leaked pooled resources (the
// out-of-order core's uop conservation invariant). Drive consults it
// after an Abort so every cancellation path in the system — sweep, the
// serving daemon, the CLI — is leak-verified for free; a violation is
// joined onto the returned cancellation error instead of going unnoticed
// until the next fuzz run.
type LeakChecker interface {
	LeakCheck() error
}

// OccupancyReporter is an optional Engine extension exposing
// instantaneous back-end structure occupancy (ROB and issue-queue
// entries in flight) for interval observability. Engines without the
// structures report what they have (the in-order core reports its
// issue-queue depth as ROB occupancy) or may omit the interface.
type OccupancyReporter interface {
	Occupancy() (rob, iq int)
}

// Probe receives pipeline events from an engine for visualization — one
// Start per in-flight dynamic instance, Stage transitions, and a Retire
// (committed or squashed). The canonical implementation is
// internal/pipetrace, which writes the Kanata log format readable by the
// Konata pipeline viewer.
//
// Every dynamic instruction instance gets a unique id; a flushed and
// replayed instruction appears as a new instance carrying the same
// program-order sequence number.
type Probe interface {
	// Start announces a new in-flight instance.
	Start(cycle int64, id uint64, seq uint64, pc uint64, disasm string)
	// Stage marks the instance entering a pipeline stage this cycle
	// (stages: F, Rn, X0..Xn, Ds, Is, Ex, Cm).
	Stage(cycle int64, id uint64, stage string)
	// Retire removes the instance: committed (flushed=false) or
	// squashed by a replay (flushed=true).
	Retire(cycle int64, id uint64, flushed bool)
}

// ProbeAttacher is an optional Engine extension for engines that can
// stream pipeline events to a Probe. Attach before the first Step.
type ProbeAttacher interface {
	SetProbe(Probe)
}

// Constructor builds an engine for one model configuration fed by one
// trace.
type Constructor func(m config.Model, trace Trace) (Engine, error)

// registry maps core kinds to their registered constructors. Written
// only from package init functions (Register), read afterwards; no
// locking needed.
var registry = map[config.CoreKind]Constructor{}

// Register installs the constructor for a core kind. Timing cores call
// it from init; importing the core's package (even blank) is what makes
// its kind constructible. Registering a kind twice is a programming
// error and panics.
func Register(kind config.CoreKind, c Constructor) {
	if c == nil {
		panic("engine: Register with nil constructor")
	}
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("engine: core kind %d registered twice", kind))
	}
	registry[kind] = c
}

// Kinds returns the registered core kinds in config declaration order.
// The registry-driven test suites (golden, differential, skip, fuzz)
// iterate it so a newly registered kind is covered without touching them.
func Kinds() []config.CoreKind {
	var ks []config.CoreKind
	for _, k := range config.Kinds() {
		if _, ok := registry[k]; ok {
			ks = append(ks, k)
		}
	}
	return ks
}

// Registered reports whether a constructor is installed for kind.
func Registered(kind config.CoreKind) bool {
	_, ok := registry[kind]
	return ok
}

// New constructs the registered engine for m.Kind fed by trace.
func New(m config.Model, trace Trace) (Engine, error) {
	c, ok := registry[m.Kind]
	if !ok {
		return nil, fmt.Errorf("engine: no engine registered for core kind %v (registered: %v; import the implementing package)",
			m.Kind, Kinds())
	}
	return c(m, trace)
}

// Run is the one-call entry point: construct the engine for m, drive it
// to completion under ctx with opts, and fail the run if the trace
// faulted. A trace that stops on an emulator error (emu.Stream) just ends
// from the timing model's point of view, so the drained Result would pass
// for a short run; when trace reports an Err() error, Run returns it
// wrapped instead. This is the one place a faulted trace fails a run.
// The engine is Run's alone, so it is released (Releaser) on return.
func Run(ctx context.Context, m config.Model, trace Trace, opts Options) (Result, error) {
	e, err := New(m, trace)
	if err != nil {
		return Result{}, err
	}
	if r, ok := e.(Releaser); ok {
		defer r.Release()
	}
	res, err := Drive(ctx, e, opts)
	if err != nil {
		return Result{}, err
	}
	if f, ok := trace.(interface{ Err() error }); ok {
		if err := f.Err(); err != nil {
			return Result{}, fmt.Errorf("engine: trace: %w", err)
		}
	}
	return res, nil
}

// DefaultCheckEvery is the default Step slice Drive uses between
// cancellation (and interval) checks: large enough that the per-slice
// bookkeeping vanishes against the per-cycle simulation work, small
// enough that cancellation lands within a few milliseconds of simulated
// work.
const DefaultCheckEvery = 4096

// Options configures one Drive invocation.
type Options struct {
	// IntervalInsts enables interval-metrics collection: a snapshot of
	// the counter deltas roughly every IntervalInsts committed
	// instructions (boundaries are observed at CheckEvery-cycle
	// granularity, so each interval spans at least IntervalInsts
	// instructions). 0 disables collection.
	IntervalInsts uint64

	// WarmupInsts is the measure-after-N-instructions mark: when
	// positive, Drive cuts the counter state at the first observation
	// with at least WarmupInsts committed instructions and attaches the
	// prefix to the returned Result as Result.Warmup, so callers can
	// exclude detailed-warm-up work (cold caches, cold predictors) from
	// measurement. The cut is observation-only — it reuses the interval
	// machinery's snapshot-and-delta path and never touches the engine,
	// so the simulation itself (and the final cumulative counters) is
	// bit-identical with the mark on or off, for any mark position.
	//
	// Near the mark Drive shrinks its Step slices geometrically down to
	// single cycles, so the cut lands within one commit-width of the
	// requested instruction count. If the run finishes (or is shorter
	// than the mark), the warm-up prefix is cut against the final state
	// and the measured remainder is empty — callers validating sampling
	// schedules should keep the mark strictly inside the run.
	WarmupInsts uint64

	// CheckEvery is the Step slice in cycles between cancellation and
	// interval checks. <= 0 means DefaultCheckEvery.
	CheckEvery int64

	// OnInterval, if non-nil (and IntervalInsts > 0), is invoked
	// synchronously from the driving goroutine as each interval is cut,
	// including the tail interval at the end of the run. It is how the
	// serving layer streams a run's interval series over the wire while
	// the simulation is still in flight, instead of waiting for the
	// assembled Result. The callback receives a copy and may retain it;
	// the same intervals still appear in Result.Intervals.
	OnInterval func(Interval)
}

// Drive runs e to completion: repeated bounded Steps with a cancellation
// check between slices and, when opts.IntervalInsts > 0, interval-
// metrics snapshots attached to the returned Result.
//
// On cancellation Drive aborts the engine (Aborter, when implemented) so
// pooled resources are released, and returns ctx's error.
func Drive(ctx context.Context, e Engine, opts Options) (Result, error) {
	check := opts.CheckEvery
	if check <= 0 {
		check = DefaultCheckEvery
	}
	var col *intervalCollector
	if opts.IntervalInsts > 0 {
		col = newIntervalCollector(e, opts.IntervalInsts)
		col.on = opts.OnInterval
	}
	var warm *warmupCollector
	if opts.WarmupInsts > 0 {
		warm = newWarmupCollector(e, opts.WarmupInsts)
	}
	done := ctx.Done()
	for {
		slice := check
		if warm != nil && !warm.cut {
			slice = warm.slice(check)
		}
		finished, err := e.Step(slice)
		if err != nil {
			return Result{}, err
		}
		if finished {
			break
		}
		if warm != nil && !warm.cut {
			warm.observe(e)
		}
		if col != nil {
			col.observe(e)
		}
		if done != nil {
			select {
			case <-done:
				if a, ok := e.(Aborter); ok {
					a.Abort()
				}
				err := ctx.Err()
				if lc, ok := e.(LeakChecker); ok {
					if lerr := lc.LeakCheck(); lerr != nil {
						err = errors.Join(err, lerr)
					}
				}
				return Result{}, err
			default:
			}
		}
	}
	res := e.Result()
	if col != nil {
		res.Intervals = col.finish(e, &res)
	}
	if warm != nil {
		res.Warmup = warm.finish(e, &res)
	}
	return res, nil
}
