// Package sampling implements SMARTS-style systematic sampling on top of
// the timing models: instead of one long detailed simulation, the workload
// is fast-forwarded functionally between short detailed windows, each
// window optionally preceded by a detailed-warm-up prefix that simulates
// in full detail but is excluded from measurement (Wunderlich et al.,
// ISCA 2003). The paper itself samples one 100M window after a 4G skip
// (Section VI-A); systematic sampling is the cheaper methodology a user of
// this simulator would reach for on long workloads.
//
// The schedule per window is skip → warm-up → measured window. Each
// detailed window runs on a fresh core, so without warm-up very short
// windows carry cold-start bias (cold caches, cold predictors); the
// warm-up prefix absorbs that bias while the measure-after-N mark
// (engine.Options.WarmupInsts) keeps the exclusion observation-only — the
// simulated instruction stream is bit-identical with warm-up accounting on
// or off.
//
// The per-window spread is reported as Student-t confidence intervals on
// IPC, branch MPKI and energy per instruction (stats.ConfidenceInterval),
// alongside a Carroll & Lin-style analytic bottleneck estimate of IPC
// (AnalyticIPC) as an independent sanity cross-check.
//
// The scheduler is checkpoint-driven: the functional machine advances
// serially exactly once, snapshots itself (emu.Machine.Clone, COW page
// tables) at each window boundary, and the detailed windows fan out across
// the sweep engine's bounded worker pool (internal/sweep). Results are
// assembled in window order, so the Summary is bit-identical for any
// worker count.
package sampling

import (
	"context"
	"fmt"
	"math"
	"time"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/energy"
	"fxa/internal/engine"
	"fxa/internal/stats"
	"fxa/internal/sweep"
	"fxa/internal/workload"

	// Blank imports register the timing cores with the engine layer.
	_ "fxa/internal/core"
	_ "fxa/internal/inorder"
)

// DefaultCILevel is the two-sided confidence level used when Config leaves
// CILevel unset.
const DefaultCILevel = 0.95

// ffChunkInsts bounds how many instructions the functional machine
// advances between cancellation checks during fast-forward. The fast
// interpreter retires tens of millions of instructions per second, so a
// 1M-instruction chunk keeps cancellation latency in the low tens of
// milliseconds without measurable overhead.
const ffChunkInsts = 1 << 20

// Config describes the sampling schedule.
type Config struct {
	// Intervals is the number of detailed windows.
	Intervals int `json:"intervals"`
	// IntervalInsts is the length of each measured detailed window in
	// dynamic instructions.
	IntervalInsts uint64 `json:"interval_insts"`
	// SkipInsts is the functional fast-forward between windows.
	SkipInsts uint64 `json:"skip_insts"`
	// WarmupInsts is the detailed-warm-up prefix of each window: the
	// instructions simulate in full detail (warming caches, predictors
	// and queues) but are excluded from every reported metric. 0 means
	// no warm-up — each window measures from a cold core.
	WarmupInsts uint64 `json:"warmup_insts"`
	// CILevel is the two-sided confidence level of the reported
	// intervals; outside (0,1) it defaults to DefaultCILevel.
	CILevel float64 `json:"ci_level"`
	// Workers bounds how many detailed windows simulate concurrently;
	// <= 0 means GOMAXPROCS. The Summary is identical for any value.
	Workers int `json:"workers"`
}

// Validate checks the schedule.
func (c *Config) Validate() error {
	if c.Intervals <= 0 || c.IntervalInsts == 0 {
		return fmt.Errorf("sampling: need positive intervals and window length")
	}
	return nil
}

// level returns the normalized confidence level.
func (c *Config) level() float64 {
	if c.CILevel > 0 && c.CILevel < 1 {
		return c.CILevel
	}
	return DefaultCILevel
}

// SummarySchemaVersion identifies the serialized Summary layout; bump it
// (and document the bump in internal/serve's wire contract) whenever the
// JSON shape changes. Version 1 is the first serialized form: per-metric
// confidence intervals, the measured aggregate, and the analytic IPC
// cross-check.
const SummarySchemaVersion = 1

// Summary aggregates a sampled simulation. All statistics are over the
// measured portion of each window — the detailed-warm-up prefix is
// excluded (engine.Result.WarmExcluded) before anything is computed.
type Summary struct {
	SchemaVersion int    `json:"schema_version"`
	Model         string `json:"model"`
	Workload      string `json:"workload"`

	// Config echoes the schedule that produced the summary, with the
	// execution-only Workers knob zeroed — the Summary is bit-identical
	// for any worker count, and a field recording the pool size would
	// break exactly that contract.
	Config Config `json:"config"`

	// PerInterval holds each window's full detailed result, including
	// its warm-up prefix (Result.Warmup) when the schedule has one, so
	// callers can inspect both the raw and the measured view.
	PerInterval []engine.Result `json:"per_interval"`

	// Aggregate sums the measured (warm-excluded) counters across
	// windows.
	Aggregate stats.Counters `json:"aggregate"`

	// MeanIPC and IPCStdDev describe the per-window measured-IPC
	// distribution (sample standard deviation, n−1).
	MeanIPC   float64 `json:"mean_ipc"`
	IPCStdDev float64 `json:"ipc_stddev"`

	// IPC, BranchMPKI and EnergyPerInst are Student-t confidence
	// intervals over the per-window measured samples, at Config's
	// confidence level. EnergyPerInst is in the energy model's
	// picojoule-like units per committed instruction.
	IPC           stats.Estimate `json:"ipc"`
	BranchMPKI    stats.Estimate `json:"branch_mpki"`
	EnergyPerInst stats.Estimate `json:"energy_per_inst"`

	// AnalyticIPC is the Carroll & Lin-style bottleneck estimate of IPC
	// computed from the measured aggregate and the model configuration —
	// an independent analytic cross-check printed beside the sampled CI,
	// not a substitute for it (see AnalyticIPC's accuracy note).
	AnalyticIPC float64 `json:"analytic_ipc"`

	// Sweep reports run metrics for the whole sampled simulation: the
	// detailed-window engine stats plus the functional fast-forward
	// accounted in FFInsts/FFTime (fast-forward dominates sampled wall
	// clock, so Sweep.FFInstsPerSec is the number to watch when tuning).
	Sweep sweep.Stats `json:"sweep"`
}

// FFInsts returns how many instructions the functional machine advanced
// outside the detailed windows' engine jobs (skips plus the serial
// window-region advance).
func (s *Summary) FFInsts() uint64 { return s.Sweep.FFInsts }

// FFWall returns the wall-clock time spent in functional fast-forward.
func (s *Summary) FFWall() time.Duration { return s.Sweep.FFTime }

// CoV returns the coefficient of variation of per-window measured IPC — a
// cheap confidence signal (low CoV: the windows agree). It is NaN when
// there is no measured progress to normalize by, so "no data" can never
// be mistaken for "perfect agreement".
func (s *Summary) CoV() float64 {
	if s.MeanIPC == 0 {
		return math.NaN()
	}
	return s.IPCStdDev / s.MeanIPC
}

// Run samples workload w on model m per cfg. The functional machine
// advances continuously (architectural state is shared across windows);
// each detailed window runs on a fresh core from a checkpoint of the
// machine at the window boundary, so windows execute in parallel through
// the sweep engine without changing the result. Cancelling ctx interrupts
// the run — both fast-forward and detailed windows — promptly.
func Run(ctx context.Context, m config.Model, w workload.Params, cfg Config) (Summary, error) {
	var sum Summary
	if err := cfg.Validate(); err != nil {
		return sum, err
	}
	prog, err := w.Build()
	if err != nil {
		return sum, err
	}
	return run(ctx, m, w.Name, emu.New(prog), cfg)
}

// run is the machine-taking body of Run, split out so tests can inject a
// machine whose program triggers fast-forward or window errors.
func run(ctx context.Context, m config.Model, wname string, machine *emu.Machine, cfg Config) (Summary, error) {
	sum := Summary{
		SchemaVersion: SummarySchemaVersion,
		Model:         m.Name,
		Workload:      wname,
		Config:        cfg,
	}
	sum.Config.Workers = 0 // execution knob, not schedule (see Summary.Config)
	var jobs []sweep.Job
	var ffInsts uint64
	var ffTime time.Duration
	// ff advances the shared machine functionally in bounded chunks with
	// a cancellation check between chunks, accounting the instructions
	// and wall time and attaching window context to errors (a bare emu
	// error names a PC but not which part of the schedule reached it).
	ff := func(insts uint64, stage string, window int) error {
		t0 := time.Now()
		defer func() { ffTime += time.Since(t0) }()
		wrap := func(err error) error {
			return fmt.Errorf("sampling: %s window %d (PC %#x): %w",
				stage, window, machine.PC, err)
		}
		for insts > 0 && !machine.Halt {
			if err := ctx.Err(); err != nil {
				return wrap(err)
			}
			chunk := insts
			if chunk > ffChunkInsts {
				chunk = ffChunkInsts
			}
			n, err := machine.Run(chunk)
			ffInsts += n
			insts -= chunk
			if err != nil {
				return wrap(err)
			}
		}
		return nil
	}
	for i := 0; i < cfg.Intervals; i++ {
		if cfg.SkipInsts > 0 {
			if err := ff(cfg.SkipInsts, "fast-forward before", i); err != nil {
				return sum, err
			}
		}
		if machine.Halt {
			break
		}
		// Checkpoint the window-entry state for the detailed job, then
		// advance the shared machine functionally through the window
		// region — warm-up prefix plus measured window — while the job
		// replays the same region in detail on its clone (the emulator
		// is deterministic, so both follow the identical path).
		snap := machine.Clone()
		limit := machine.InstCount + cfg.WarmupInsts + cfg.IntervalInsts
		window, entryPC, warm := i, machine.PC, cfg.WarmupInsts
		jobs = append(jobs, sweep.Job{
			Label: fmt.Sprintf("%s/%s window %d", wname, m.Name, i),
			Run: func(ctx context.Context) (engine.Result, error) {
				res, err := engine.Run(ctx, m, emu.NewStream(snap, limit), engine.Options{WarmupInsts: warm})
				if err != nil {
					// The stream error names the faulting PC; add which
					// window reached it and where that window entered.
					return engine.Result{}, fmt.Errorf(
						"sampling: window %d (entry PC %#x): %w",
						window, entryPC, err)
				}
				return res, nil
			},
		})
		if err := ff(cfg.WarmupInsts+cfg.IntervalInsts, "advance through", i); err != nil {
			return sum, err
		}
	}
	if len(jobs) == 0 {
		return sum, fmt.Errorf("sampling: workload halted before the first window")
	}
	results, st, err := sweep.Run(ctx, jobs, sweep.Options{Workers: cfg.Workers})
	st.FFInsts, st.FFTime = ffInsts, ffTime
	sum.Sweep = st
	if err != nil {
		return sum, err
	}
	// Statistics are over the measured view of each window: the detailed
	// warm-up prefix is subtracted before any metric is computed. A
	// window whose measured portion committed nothing (the program
	// halted inside its warm-up) contributes no samples.
	dev := config.DefaultDevice()
	var ipcs, mpkis, epis []float64
	var dram uint64
	for i := range results {
		sum.PerInterval = append(sum.PerInterval, results[i])
		meas := results[i].WarmExcluded()
		sum.Aggregate.Add(&meas.Counters)
		dram += meas.DRAM
		if meas.Counters.Committed == 0 {
			continue
		}
		ipcs = append(ipcs, meas.Counters.IPC())
		mpkis = append(mpkis, meas.Counters.MPKI())
		b := energy.Estimate(m, dev, meas)
		epis = append(epis, b.Total()/float64(meas.Counters.Committed))
	}
	sum.MeanIPC, sum.IPCStdDev = stats.MeanStdDev(ipcs)
	level := cfg.level()
	sum.IPC = stats.ConfidenceInterval(ipcs, level)
	sum.BranchMPKI = stats.ConfidenceInterval(mpkis, level)
	sum.EnergyPerInst = stats.ConfidenceInterval(epis, level)
	sum.AnalyticIPC = AnalyticIPC(m, &sum.Aggregate, dram)
	return sum, nil
}
