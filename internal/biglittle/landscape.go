package biglittle

import (
	"context"
	"fmt"

	"fxa/internal/config"
	"fxa/internal/energy"
	"fxa/internal/engine"
	"fxa/internal/report"
	"fxa/internal/workload"
)

// LandscapePoint is one model's position in the energy/performance
// landscape: IPC and energy per instruction on a common workload.
type LandscapePoint struct {
	Model  config.Model
	Cycles uint64
	IPC    float64
	// EPI is energy per committed instruction in picojoules.
	EPI float64
}

// Landscape runs every named model of every registered core kind
// (config.AllModels: the paper's five plus DUAL-SI and DUAL) on w for
// insts instructions and returns one point per model, in catalog order.
// This is the 3-kind generalization of the paper's Section VI big-vs-FXA
// comparison: out-of-order, in-order and dual-issue in-order cores in a
// single energy/IPC frame.
func Landscape(ctx context.Context, w workload.Params, insts uint64) ([]LandscapePoint, error) {
	dev := config.DefaultDevice()
	var pts []LandscapePoint
	for _, m := range config.AllModels() {
		trace, err := w.NewTrace(insts)
		if err != nil {
			return nil, err
		}
		res, err := engine.Run(ctx, m, trace)
		if err != nil {
			return nil, fmt.Errorf("biglittle: %s on %s: %w", m.Name, w.Name, err)
		}
		e := energy.Estimate(m, dev, res)
		pt := LandscapePoint{Model: m, Cycles: res.Counters.Cycles, IPC: res.Counters.IPC()}
		if c := res.Counters.Committed; c > 0 {
			pt.EPI = e.Total() / float64(c)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// LandscapeTable renders landscape points as a report table: one row per
// model with its kind, IPC, energy per instruction, and an IPC bar for
// quick visual ranking.
func LandscapeTable(title string, pts []LandscapePoint) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"model", "kind", "cycles", "IPC", "EPI (pJ)", ""},
		Footer:  []string{"EPI = total core energy / committed instructions; bar scaled to best IPC"},
	}
	maxIPC := 0.0
	for _, p := range pts {
		if p.IPC > maxIPC {
			maxIPC = p.IPC
		}
	}
	for _, p := range pts {
		t.AddRow(
			p.Model.Name,
			p.Model.Kind.String(),
			fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%.3f", p.IPC),
			fmt.Sprintf("%.1f", p.EPI),
			report.Bar(p.IPC, maxIPC, 20),
		)
	}
	return t
}
