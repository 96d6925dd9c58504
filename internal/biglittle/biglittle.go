// Package biglittle models the deployment scenario of Section VI-I: an
// ARM big.LITTLE pair in which the big core serves high-demand phases
// (interactive bursts) and the little core serves low-demand background
// work. The paper's proposal is to replace only the big core with an FXA
// core — keeping the little core, whose energy per instruction is always
// the lowest — so that "application programs that require high performance
// of big cores can be executed with lower energy consumption."
//
// The model runs a phase schedule over a two-core system: each phase is a
// workload slice pinned to one core by its demand class, and the report
// aggregates cycles and energy across phases (the idle companion core is
// assumed power-gated, the usual big.LITTLE operating point).
package biglittle

import (
	"context"
	"fmt"

	"fxa/internal/config"
	"fxa/internal/energy"
	"fxa/internal/engine"
	"fxa/internal/workload"

	// Blank imports register the timing cores with the engine layer.
	_ "fxa/internal/core"
	_ "fxa/internal/inorder"
)

// Demand classifies a phase.
type Demand int

const (
	// Low demand runs on the little core (background work, audio,
	// sync...).
	Low Demand = iota
	// High demand runs on the big core (interactive burst, page load,
	// game frame...).
	High
)

// String names the demand class.
func (d Demand) String() string {
	if d == High {
		return "high"
	}
	return "low"
}

// Phase is one segment of the schedule.
type Phase struct {
	Name     string
	Workload workload.Params
	Insts    uint64
	Demand   Demand
}

// System is a big.LITTLE pairing.
type System struct {
	Name   string
	Big    config.Model // the high-performance core (BIG or an FXA core)
	Little config.Model // the efficiency core
}

// PhaseResult records one executed phase.
type PhaseResult struct {
	Phase  Phase
	Core   string
	Cycles uint64
	Energy float64
}

// Report aggregates a schedule run.
type Report struct {
	System     System
	Phases     []PhaseResult
	Cycles     uint64  // total
	Energy     float64 // total
	HighCycles uint64  // cycles spent in high-demand phases (latency-critical)
}

// Run executes the schedule on the system.
func (s System) Run(phases []Phase) (Report, error) {
	rep := Report{System: s}
	for _, ph := range phases {
		m := s.Little
		if ph.Demand == High {
			m = s.Big
		}
		res, e, err := run(context.Background(), m, ph.Workload, ph.Insts)
		if err != nil {
			return rep, err
		}
		pr := PhaseResult{
			Phase:  ph,
			Core:   m.Name,
			Cycles: res.Counters.Cycles,
			Energy: e,
		}
		rep.Phases = append(rep.Phases, pr)
		rep.Cycles += pr.Cycles
		rep.Energy += pr.Energy
		if ph.Demand == High {
			rep.HighCycles += pr.Cycles
		}
	}
	return rep, nil
}

// run simulates insts instructions of w on m and estimates the run's
// total energy under the Table II device configuration.
func run(ctx context.Context, m config.Model, w workload.Params, insts uint64) (engine.Result, float64, error) {
	trace, err := w.NewTrace(insts)
	if err != nil {
		return engine.Result{}, 0, err
	}
	res, err := engine.Run(ctx, m, trace, engine.Options{})
	trace.M.Mem.Release()
	if err != nil {
		return engine.Result{}, 0, fmt.Errorf("biglittle: %s on %s: %w", m.Name, w.Name, err)
	}
	e := energy.Estimate(m, config.DefaultDevice(), res)
	return res, e.Total(), nil
}

// ConventionalPair returns the baseline big.LITTLE system (BIG + LITTLE).
func ConventionalPair() System {
	return System{Name: "BIG.LITTLE", Big: config.Big(), Little: config.Little()}
}

// FXAPair returns the paper's proposal: the big core replaced by HALF+FX,
// the little core retained.
func FXAPair() System {
	return System{Name: "FXA.LITTLE", Big: config.HalfFX(), Little: config.Little()}
}

// DefaultSchedule is a representative mobile-style phase mix: interactive
// bursts on compute-heavy proxies interleaved with low-demand background
// slices.
func DefaultSchedule(instsPerPhase uint64) []Phase {
	get := func(name string) workload.Params {
		p, ok := workload.ByName(name)
		if !ok {
			panic("biglittle: unknown workload " + name)
		}
		return p
	}
	return []Phase{
		{Name: "page-load", Workload: get("xalancbmk"), Insts: instsPerPhase, Demand: High},
		{Name: "background-sync", Workload: get("mcf"), Insts: instsPerPhase / 2, Demand: Low},
		{Name: "game-frame", Workload: get("h264ref"), Insts: instsPerPhase, Demand: High},
		{Name: "audio-decode", Workload: get("sphinx3"), Insts: instsPerPhase / 2, Demand: Low},
		{Name: "js-burst", Workload: get("libquantum"), Insts: instsPerPhase, Demand: High},
		{Name: "idle-maintenance", Workload: get("bzip2"), Insts: instsPerPhase / 2, Demand: Low},
	}
}
