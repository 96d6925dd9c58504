package fxa

import (
	"context"
	"fmt"
	"testing"
)

// TestEnergyCalibration prints the Figure 8a/8b/9/10 reproduction and
// asserts the coarse orderings of Section VI-D/-G.
func TestEnergyCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	ev, _, err := RunEvaluation(context.Background(), 0, 120_000, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp := ev.MeanEnergyByComponent()
	for _, m := range []string{"LITTLE", "BIG", "BIG+FX", "HALF", "HALF+FX"} {
		arr := comp[m]
		var tot float64
		for _, v := range arr {
			tot += v
		}
		line := fmt.Sprintf("%-8s total=%.3f | ", m, tot)
		for _, c := range Components() {
			line += fmt.Sprintf("%s=%.3f ", c, arr[c])
		}
		t.Log(line)
	}
	t.Logf("IQ  ratio HALF+FX/BIG = %.3f (paper 0.14)", ev.EnergyRatio("HALF+FX", 0))
	t.Logf("LSQ ratio HALF+FX/BIG = %.3f (paper 0.77)", ev.EnergyRatio("HALF+FX", 1))
	t.Logf("total HALF+FX/BIG = %.3f (paper 0.83)", ev.TotalEnergyRatio("HALF+FX"))
	t.Logf("total BIG+FX/BIG  = %.3f (paper 0.913)", ev.TotalEnergyRatio("BIG+FX"))
	t.Logf("total LITTLE/BIG  = %.3f (paper 0.60)", ev.TotalEnergyRatio("LITTLE"))
	fu := ev.MeanFUEnergy()
	for _, m := range []string{"LITTLE", "BIG", "HALF", "HALF+FX"} {
		s := fu[m]
		t.Logf("FU+bypass %-8s total=%.3f (oxuD %.3f oxuS %.3f ixuD %.3f ixuS %.3f)",
			m, s.Total(), s.OXUDynamic, s.OXUStatic, s.IXUDynamic, s.IXUStatic)
	}
	for _, g := range []Group{GroupINT, GroupFP, GroupALL} {
		t.Logf("PER[%s]: LITTLE %.3f HALF %.3f HALF+FX %.3f BIG+FX %.3f", g,
			ev.PER("LITTLE", g), ev.PER("HALF", g), ev.PER("HALF+FX", g), ev.PER("BIG+FX", g))
	}
	bigArea := AreaOf(Big())
	fxArea := AreaOf(HalfFX())
	litArea := AreaOf(Little())
	t.Logf("area: BIG %.3f HALF+FX %.3f (ratio %.3f, paper 1.027) LITTLE %.3f; HALF+FX L2 share %.2f (paper 0.44) FPU share %.2f (paper 0.24)",
		bigArea.Total(), fxArea.Total(), fxArea.Total()/bigArea.Total(), litArea.Total(),
		fxArea.Area[11]/fxArea.Total(), fxArea.Area[7]/fxArea.Total())
	t.Logf("ready-at-entry rate HALF+FX = %.3f (paper 0.055)", ev.ReadyAtEntryRate("HALF+FX"))

	// Coarse assertions.
	if r := ev.TotalEnergyRatio("HALF+FX"); r >= 1.0 || r < 0.6 {
		t.Errorf("HALF+FX total energy ratio %.3f out of plausible band", r)
	}
	if r := ev.TotalEnergyRatio("LITTLE"); r >= ev.TotalEnergyRatio("HALF+FX") {
		t.Errorf("LITTLE (%.3f) must consume less than HALF+FX (%.3f)", r, ev.TotalEnergyRatio("HALF+FX"))
	}
	if ev.PER("HALF+FX", GroupALL) <= 1.0 {
		t.Errorf("HALF+FX PER %.3f must exceed BIG", ev.PER("HALF+FX", GroupALL))
	}
	if ev.EnergyRatio("HALF+FX", 0) > 0.5 {
		t.Errorf("IQ energy ratio %.3f too high", ev.EnergyRatio("HALF+FX", 0))
	}
}
