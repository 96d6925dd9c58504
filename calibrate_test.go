package fxa

import (
	"context"
	"math"
	"testing"
)

// TestCalibrationSweep logs the IPC / IXU-rate landscape across all
// proxies and models. Run with -v to inspect; asserts only the coarse
// orderings the paper's Figure 7 depends on.
func TestCalibrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	const n = 120_000
	models := Models()
	type row struct {
		name string
		fp   bool
		ipc  map[string]float64
		rate map[string]float64
		mpki map[string]float64
	}
	var rows []row
	for _, w := range Workloads() {
		r := row{name: w.Name, fp: w.FP, ipc: map[string]float64{}, rate: map[string]float64{}, mpki: map[string]float64{}}
		for _, m := range models {
			res, err := Run(context.Background(), Spec{Model: m, Workload: w, MaxInsts: n})
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, m.Name, err)
			}
			r.ipc[m.Name] = res.Counters.IPC()
			r.rate[m.Name] = res.Counters.IXURate()
			r.mpki[m.Name] = res.Counters.MPKI()
		}
		rows = append(rows, r)
		t.Logf("%-12s IPC: LITTLE %.2f BIG %.2f BIG+FX %.2f HALF %.2f HALF+FX %.2f | rate %.2f | relBIG %.2f | mpki %.1f",
			w.Name, r.ipc["LITTLE"], r.ipc["BIG"], r.ipc["BIG+FX"], r.ipc["HALF"], r.ipc["HALF+FX"],
			r.rate["HALF+FX"], r.ipc["HALF+FX"]/r.ipc["BIG"], r.mpki["BIG"])
	}

	geo := func(sel func(row) float64, filt func(row) bool) float64 {
		prod, cnt := 1.0, 0
		for _, r := range rows {
			if filt(r) {
				prod *= sel(r)
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return pow(prod, 1/float64(cnt))
	}
	all := func(row) bool { return true }
	intg := func(r row) bool { return !r.fp }
	fpg := func(r row) bool { return r.fp }

	for _, grp := range []struct {
		name string
		filt func(row) bool
	}{{"INT", intg}, {"FP", fpg}, {"ALL", all}} {
		little := geo(func(r row) float64 { return r.ipc["LITTLE"] / r.ipc["BIG"] }, grp.filt)
		half := geo(func(r row) float64 { return r.ipc["HALF"] / r.ipc["BIG"] }, grp.filt)
		halfFX := geo(func(r row) float64 { return r.ipc["HALF+FX"] / r.ipc["BIG"] }, grp.filt)
		bigFX := geo(func(r row) float64 { return r.ipc["BIG+FX"] / r.ipc["BIG"] }, grp.filt)
		rate := geo(func(r row) float64 { return r.rate["HALF+FX"] }, grp.filt)
		t.Logf("[%s] rel IPC: LITTLE %.3f HALF %.3f HALF+FX %.3f BIG+FX %.3f | IXU rate %.3f",
			grp.name, little, half, halfFX, bigFX, rate)
	}

	// Coarse shape assertions (Figure 7 / Section VI-C).
	relHalfFX := geo(func(r row) float64 { return r.ipc["HALF+FX"] / r.ipc["BIG"] }, all)
	relHalf := geo(func(r row) float64 { return r.ipc["HALF"] / r.ipc["BIG"] }, all)
	relLittle := geo(func(r row) float64 { return r.ipc["LITTLE"] / r.ipc["BIG"] }, all)
	rateAll := geo(func(r row) float64 { return r.rate["HALF+FX"] }, all)
	if relHalfFX <= relHalf {
		t.Errorf("HALF+FX rel IPC %.3f must exceed HALF %.3f", relHalfFX, relHalf)
	}
	if relLittle >= relHalf {
		t.Errorf("LITTLE rel IPC %.3f must be below HALF %.3f", relLittle, relHalf)
	}
	if rateAll < 0.40 {
		t.Errorf("HALF+FX IXU execution rate %.3f, want > 0.40 (paper: 0.54)", rateAll)
	}
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}
