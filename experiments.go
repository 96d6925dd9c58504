package fxa

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/energy"
	"fxa/internal/sweep"
)

// EnergyBreakdown re-exports the per-component energy split.
type EnergyBreakdown = energy.Breakdown

// AreaBreakdown re-exports the per-component area split.
type AreaBreakdown = energy.AreaBreakdown

// Component re-exports the breakdown component identifiers.
type Component = energy.Component

// Components returns the breakdown components in figure order.
func Components() []Component { return energy.Components() }

// EnergyOf estimates the energy breakdown of a run under the Table II
// device configuration.
func EnergyOf(m Model, r Result) EnergyBreakdown {
	return energy.Estimate(m, config.DefaultDevice(), r)
}

// AreaOf computes the circuit-area breakdown of a model (Figure 9).
func AreaOf(m Model) AreaBreakdown { return energy.AreaOf(m) }

// BenchResult holds one workload's results across all evaluated models.
type BenchResult struct {
	Workload Workload
	Res      map[string]Result
	Energy   map[string]EnergyBreakdown
}

// Evaluation is the full Section VI sweep: every workload on every model,
// with energies. All figure-level views derive from it.
type Evaluation struct {
	MaxInsts uint64
	// Warmup is the per-cell functional fast-forward that preceded each
	// detailed simulation (0 for the classic cold-start evaluation).
	Warmup uint64
	Models []Model
	Rows   []BenchResult
}

// simFingerprint is the cache identity of one (model, workload, warmup,
// maxInsts) simulation: it embeds the complete model and workload
// configurations, so any parameter change misses the result cache.
type simFingerprint struct {
	Kind     string // job family, so distinct job types never collide
	Model    Model
	Workload Workload
	Warmup   uint64
	MaxInsts uint64
}

// ffMeter accumulates functional fast-forward cost across concurrently
// executing sweep jobs; the totals land in sweep.Stats.FFInsts/FFTime.
// A nil meter discards.
type ffMeter struct {
	insts atomic.Uint64
	nanos atomic.Int64
}

func (f *ffMeter) add(insts uint64, d time.Duration) {
	if f == nil {
		return
	}
	f.insts.Add(insts)
	f.nanos.Add(int64(d))
}

// newCellTrace builds the dynamic-instruction stream for one evaluation
// cell: warmup > 0 prepends a functional fast-forward (emulator-only, no
// timing) to the detailed window, and ff (nil-safe) accounts its cost.
func newCellTrace(w Workload, warmup, maxInsts uint64, ff *ffMeter) (*emu.Stream, error) {
	if warmup == 0 {
		return w.NewTrace(maxInsts)
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	// Time only the emulator's fast-forward, not program build
	// or machine setup, so Stats.FFInstsPerSec reports the
	// fast path's real throughput.
	machine := emu.New(prog)
	t0 := time.Now()
	n, err := machine.Run(warmup)
	ff.add(n, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	limit := maxInsts
	if limit > 0 {
		limit += machine.InstCount
	}
	return emu.NewStream(machine, limit), nil
}

// runJob builds the sweep job for one (model, workload) evaluation cell.
// The job's ctx reaches the engine layer, so cancelling the sweep
// interrupts an in-flight simulation within a few thousand simulated
// cycles instead of waiting it out.
func runJob(m Model, w Workload, warmup, maxInsts uint64, ff *ffMeter) sweep.Job {
	s := Spec{Model: m, Workload: w, Warmup: warmup, MaxInsts: maxInsts}
	return sweep.Job{
		Label:       w.Name + "/" + m.Name,
		Fingerprint: simFingerprint{Kind: "run", Model: m, Workload: w, Warmup: warmup, MaxInsts: maxInsts},
		Run:         func(ctx context.Context) (Result, error) { return run(ctx, s, ff) },
	}
}

// EvaluationJob returns the sweep job for one (model, workload) cell —
// the exact job RunEvaluation submits, fingerprint included, so an
// external executor (the fxad daemon) shares cache identity with local
// sweeps: a cell simulated by the CLI is a cache hit for the daemon and
// vice versa. Its Run is Run with Spec{Model: m, Workload: w, Warmup:
// warmup, MaxInsts: maxInsts}; an executor that streams interval metrics
// replaces it with a Run whose Spec adds IntervalInsts and OnInterval and
// whose Result drops the series, which leaves the fingerprint and the
// cached bytes unchanged.
func EvaluationJob(m Model, w Workload, warmup, maxInsts uint64) SweepJob {
	return runJob(m, w, warmup, maxInsts, nil)
}

// RunEvaluation runs the full Section VI evaluation matrix — all 29
// proxies on all five models, maxInsts detailed instructions each, with
// energies — through the sweep engine: every (workload, model) cell is an
// independent job executed on a bounded worker pool, optionally answered
// from the result cache. Rows are assembled in catalog order regardless
// of completion order, so the evaluation is deterministic for any worker
// count.
//
// warmup > 0 fast-forwards each cell functionally before its detailed
// window — the paper's skip-then-measure methodology (Section VI-A)
// scaled down. Its aggregate cost is reported in the returned SweepStats
// (FFInsts/FFTime), so the stats line shows how much of the wall clock
// went to functional skipping.
func RunEvaluation(ctx context.Context, warmup, maxInsts uint64, opts SweepOptions) (*Evaluation, SweepStats, error) {
	ws, models := Workloads(), Models()
	var ff ffMeter
	jobs := make([]sweep.Job, 0, len(ws)*len(models))
	for _, w := range ws {
		for _, m := range models {
			jobs = append(jobs, runJob(m, w, warmup, maxInsts, &ff))
		}
	}
	results, stats, err := sweep.Run(ctx, jobs, opts)
	stats.FFInsts = ff.insts.Load()
	stats.FFTime = time.Duration(ff.nanos.Load())
	if err != nil {
		return nil, stats, err
	}
	ev, err := NewEvaluation(warmup, maxInsts, results)
	return ev, stats, err
}

// NewEvaluation assembles an Evaluation from per-cell results given in
// Workloads() × Models() order — the order RunEvaluation submits its
// jobs and the order a remote client receives them back.
// Energies are estimated here, so a result set produced elsewhere (the
// fxad daemon) yields an Evaluation bit-identical to a local sweep's.
func NewEvaluation(warmup, maxInsts uint64, results []Result) (*Evaluation, error) {
	ev := &Evaluation{MaxInsts: maxInsts, Warmup: warmup, Models: Models()}
	ws := Workloads()
	if len(results) != len(ws)*len(ev.Models) {
		return nil, fmt.Errorf("fxa: NewEvaluation: %d results, want %d (%d workloads x %d models)",
			len(results), len(ws)*len(ev.Models), len(ws), len(ev.Models))
	}
	for wi, w := range ws {
		row := BenchResult{
			Workload: w,
			Res:      make(map[string]Result, len(ev.Models)),
			Energy:   make(map[string]EnergyBreakdown, len(ev.Models)),
		}
		for mi, m := range ev.Models {
			res := results[wi*len(ev.Models)+mi]
			row.Res[m.Name] = res
			row.Energy[m.Name] = EnergyOf(m, res)
		}
		ev.Rows = append(ev.Rows, row)
	}
	return ev, nil
}

// Group selects a benchmark-group slice of the evaluation.
type Group int

const (
	GroupINT Group = iota
	GroupFP
	GroupALL
)

// String returns the paper's group label.
func (g Group) String() string {
	switch g {
	case GroupINT:
		return "INT"
	case GroupFP:
		return "FP"
	default:
		return "ALL"
	}
}

func (g Group) match(w Workload) bool {
	switch g {
	case GroupINT:
		return !w.FP
	case GroupFP:
		return w.FP
	default:
		return true
	}
}

// geomean returns the geometric mean of f over the group's rows.
func (ev *Evaluation) geomean(g Group, f func(BenchResult) float64) float64 {
	logSum, n := 0.0, 0
	for _, r := range ev.Rows {
		if !g.match(r.Workload) {
			continue
		}
		v := f(r)
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// RelIPC returns a workload's IPC on model relative to BIG (Figure 7).
func (r BenchResult) RelIPC(model string) float64 {
	bigRes := r.Res["BIG"]
	big := bigRes.Counters.IPC()
	if big == 0 {
		return 0
	}
	mres := r.Res[model]
	return mres.Counters.IPC() / big
}

// GeomeanRelIPC returns the group geometric-mean IPC relative to BIG
// (the mean(INT)/mean(FP)/mean bars of Figure 7).
func (ev *Evaluation) GeomeanRelIPC(model string, g Group) float64 {
	return ev.geomean(g, func(r BenchResult) float64 { return r.RelIPC(model) })
}

// MeanEnergyByComponent returns each model's per-component energy,
// averaged (arithmetic, per-instruction) across all workloads and
// normalized so BIG's total is 1 (Figure 8a).
func (ev *Evaluation) MeanEnergyByComponent() map[string][energy.NumComponents]float64 {
	sums := make(map[string][energy.NumComponents]float64)
	for _, m := range ev.Models {
		var acc [energy.NumComponents]float64
		for _, r := range ev.Rows {
			e := r.Energy[m.Name]
			insts := float64(r.Res[m.Name].Counters.Committed)
			for c := 0; c < int(energy.NumComponents); c++ {
				acc[c] += (e.Dynamic[c] + e.Static[c]) / insts
			}
		}
		for c := range acc {
			acc[c] /= float64(len(ev.Rows))
		}
		sums[m.Name] = acc
	}
	// Normalize to BIG's total.
	var bigTotal float64
	for _, v := range sums["BIG"] {
		bigTotal += v
	}
	if bigTotal > 0 {
		for name, arr := range sums {
			for c := range arr {
				arr[c] /= bigTotal
			}
			sums[name] = arr
		}
	}
	return sums
}

// FUEnergySplit is one bar of Figure 8b: FU + bypass-network energy split
// into IXU/OXU × static/dynamic, normalized to BIG's total.
type FUEnergySplit struct {
	OXUDynamic float64
	OXUStatic  float64
	IXUDynamic float64
	IXUStatic  float64
}

// Total sums the four parts.
func (f FUEnergySplit) Total() float64 {
	return f.OXUDynamic + f.OXUStatic + f.IXUDynamic + f.IXUStatic
}

// MeanFUEnergy returns the Figure 8b bars.
func (ev *Evaluation) MeanFUEnergy() map[string]FUEnergySplit {
	out := make(map[string]FUEnergySplit)
	for _, m := range ev.Models {
		var s FUEnergySplit
		for _, r := range ev.Rows {
			e := r.Energy[m.Name]
			insts := float64(r.Res[m.Name].Counters.Committed)
			s.OXUDynamic += e.Dynamic[energy.FUs] / insts
			s.OXUStatic += e.Static[energy.FUs] / insts
			s.IXUDynamic += e.Dynamic[energy.IXU] / insts
			s.IXUStatic += e.Static[energy.IXU] / insts
		}
		n := float64(len(ev.Rows))
		s.OXUDynamic /= n
		s.OXUStatic /= n
		s.IXUDynamic /= n
		s.IXUStatic /= n
		out[m.Name] = s
	}
	big := out["BIG"].Total()
	if big > 0 {
		for name, s := range out {
			s.OXUDynamic /= big
			s.OXUStatic /= big
			s.IXUDynamic /= big
			s.IXUStatic /= big
			out[name] = s
		}
	}
	return out
}

// EnergyRatio returns model's mean per-instruction energy of one component
// relative to BIG's same component (e.g. the 14 % IQ / 77 % LSQ claims of
// Section VI-D).
func (ev *Evaluation) EnergyRatio(model string, c Component) float64 {
	var m, b float64
	for _, r := range ev.Rows {
		em, eb := r.Energy[model], r.Energy["BIG"]
		im := float64(r.Res[model].Counters.Committed)
		ib := float64(r.Res["BIG"].Counters.Committed)
		m += (em.Dynamic[c] + em.Static[c]) / im
		b += (eb.Dynamic[c] + eb.Static[c]) / ib
	}
	if b == 0 {
		return 0
	}
	return m / b
}

// TotalEnergyRatio returns model's mean per-instruction whole-core energy
// relative to BIG.
func (ev *Evaluation) TotalEnergyRatio(model string) float64 {
	var m, b float64
	for _, r := range ev.Rows {
		em, eb := r.Energy[model], r.Energy["BIG"]
		m += em.Total() / float64(r.Res[model].Counters.Committed)
		b += eb.Total() / float64(r.Res["BIG"].Counters.Committed)
	}
	if b == 0 {
		return 0
	}
	return m / b
}

// PER returns the performance/energy ratio (the inverse of the
// energy-delay product) of model relative to BIG for a group (Figure 10).
// Per workload: PER_rel = (IPC_m / IPC_BIG) × (E_BIG / E_m) with energies
// per instruction; group value is the geometric mean.
func (ev *Evaluation) PER(model string, g Group) float64 {
	return ev.geomean(g, func(r BenchResult) float64 {
		ipcRatio := r.RelIPC(model)
		emb, ebb := r.Energy[model], r.Energy["BIG"]
		em := emb.Total() / float64(r.Res[model].Counters.Committed)
		eb := ebb.Total() / float64(r.Res["BIG"].Counters.Committed)
		if em == 0 {
			return 0
		}
		return ipcRatio * eb / em
	})
}

// GeomeanIXURate returns the group geometric-mean fraction of committed
// instructions executed in the IXU (Figure 12 at the default depth).
func (ev *Evaluation) GeomeanIXURate(model string, g Group) float64 {
	return ev.geomean(g, func(r BenchResult) float64 {
		res := r.Res[model]
		return res.Counters.IXURate()
	})
}

// ReadyAtEntryRate returns the fraction of committed instructions that
// were category (a) — ready at IXU entry (Section IV-A: 5.5 % on average).
func (ev *Evaluation) ReadyAtEntryRate(model string) float64 {
	var ready, committed float64
	for _, r := range ev.Rows {
		ready += float64(r.Res[model].Counters.IXUReadyAtEntry)
		committed += float64(r.Res[model].Counters.Committed)
	}
	if committed == 0 {
		return 0
	}
	return ready / committed
}

// ModelNames returns the evaluated model names in paper order.
func (ev *Evaluation) ModelNames() []string {
	names := make([]string, len(ev.Models))
	for i, m := range ev.Models {
		names[i] = m.Name
	}
	return names
}

// RowByName returns the named workload's results.
func (ev *Evaluation) RowByName(name string) (BenchResult, error) {
	for _, r := range ev.Rows {
		if r.Workload.Name == name {
			return r, nil
		}
	}
	return BenchResult{}, fmt.Errorf("fxa: no evaluation row for %q", name)
}
