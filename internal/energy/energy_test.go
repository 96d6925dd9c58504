package energy

import (
	"testing"

	"fxa/internal/config"
	"fxa/internal/engine"
	"fxa/internal/isa"
	"fxa/internal/stats"
)

// synthetic builds a plausible Result for energy-model unit tests.
func synthetic(ixuRate float64) engine.Result {
	const insts = 100_000
	var c stats.Counters
	c.Cycles = 80_000
	c.Committed = insts
	c.FetchedInsts = insts
	c.DecodeOps = insts
	c.RATReads = 2 * insts
	c.RATWrites = insts * 8 / 10
	c.PRFReads = 2 * insts
	c.PRFWrites = insts * 8 / 10
	c.ROBWrites = insts
	c.ROBReads = insts
	ixu := uint64(float64(insts) * ixuRate)
	c.IXUExec = ixu
	c.OXUExec = insts - ixu
	c.IQDispatch = insts - ixu
	c.IQIssue = insts - ixu
	c.IQWakeups = (insts - ixu) * 8 / 10
	c.IXUBypassDrives = ixu * 8 / 10
	c.ScoreboardReads = insts + (insts - ixu)
	c.FUOps[isa.ClassIntALU] = insts * 6 / 10
	c.FUOps[isa.ClassLoad] = insts * 2 / 10
	c.FUOps[isa.ClassStore] = insts / 10
	c.FUOps[isa.ClassBranch] = insts / 10
	c.LQWrites = insts * 15 / 100
	c.SQWrites = insts / 10
	c.SQSearches = insts * 2 / 10
	c.LQSearches = insts / 10
	return engine.Result{Counters: c}
}

func TestIQEnergyScalesWithCapacityAndPorts(t *testing.T) {
	dev := config.DefaultDevice()
	res := synthetic(0)
	big := Estimate(config.Big(), dev, res)
	half := Estimate(config.Half(), dev, res)
	ratio := half.Dynamic[IQ] / big.Dynamic[IQ]
	// HALF: 32 entries × (2·2+3)=7 ports vs BIG: 64 × 11 → 0.318 per
	// access, same access counts.
	if ratio < 0.25 || ratio > 0.40 {
		t.Errorf("HALF/BIG IQ dynamic ratio = %.3f, want ~0.32", ratio)
	}
}

func TestIXUFilteringCutsIQEnergy(t *testing.T) {
	dev := config.DefaultDevice()
	base := Estimate(config.HalfFX(), dev, synthetic(0))
	filtered := Estimate(config.HalfFX(), dev, synthetic(0.5))
	if filtered.Dynamic[IQ] >= base.Dynamic[IQ]*0.6 {
		t.Errorf("50%% IXU filtering must cut IQ energy roughly in half: %.1f vs %.1f",
			filtered.Dynamic[IQ], base.Dynamic[IQ])
	}
}

func TestInOrderHasNoSchedulingEnergy(t *testing.T) {
	dev := config.DefaultDevice()
	res := synthetic(0)
	little := Estimate(config.Little(), dev, res)
	if little.Dynamic[IQ] != 0 || little.Dynamic[LSQ] != 0 || little.Dynamic[RAT] != 0 {
		t.Error("LITTLE must have zero IQ/LSQ/RAT energy")
	}
	if little.Static[IQ] != 0 {
		t.Error("LITTLE has no IQ to leak")
	}
	if little.Dynamic[PRF] <= 0 {
		t.Error("LITTLE still reads its register file")
	}
}

func TestL2StaticIsNegligible(t *testing.T) {
	dev := config.DefaultDevice()
	b := Estimate(config.Big(), dev, synthetic(0))
	if b.Static[L2] > b.Static[Others]/10 {
		t.Errorf("L2 static (%.2f) must be negligible (LSTP transistors); others %.2f",
			b.Static[L2], b.Static[Others])
	}
}

func TestStaticScalesWithCycles(t *testing.T) {
	dev := config.DefaultDevice()
	fast := synthetic(0)
	slow := synthetic(0)
	slow.Counters.Cycles *= 2
	ef := Estimate(config.Big(), dev, fast)
	es := Estimate(config.Big(), dev, slow)
	if es.TotalStatic() <= ef.TotalStatic()*1.9 {
		t.Errorf("static energy must double with cycles: %.1f vs %.1f", es.TotalStatic(), ef.TotalStatic())
	}
	if es.TotalDynamic() != ef.TotalDynamic() {
		t.Error("dynamic energy must not depend on cycles")
	}
}

func TestBreakdownAccessors(t *testing.T) {
	var b Breakdown
	b.Dynamic[IQ] = 3
	b.Static[IQ] = 1
	b.Dynamic[L2] = 2
	if b.Of(IQ) != 4 || b.Total() != 6 || b.TotalDynamic() != 5 || b.TotalStatic() != 1 {
		t.Errorf("accessors broken: %+v", b)
	}
}

func TestComponentNames(t *testing.T) {
	if len(Components()) != int(NumComponents) {
		t.Fatal("Components() incomplete")
	}
	seen := map[string]bool{}
	for _, c := range Components() {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("bad component name %q", s)
		}
		seen[s] = true
	}
}

func TestAreaShapes(t *testing.T) {
	big := AreaOf(config.Big())
	half := AreaOf(config.Half())
	halfFX := AreaOf(config.HalfFX())
	little := AreaOf(config.Little())

	// Figure 9a: L2 and FPU dominate; HALF+FX ≈ +2-3 % over BIG; LITTLE
	// clearly smaller.
	if share := big.Area[L2] / big.Total(); share < 0.35 || share > 0.55 {
		t.Errorf("L2 area share %.2f, want ~0.44", share)
	}
	if share := halfFX.Area[FPU] / halfFX.Total(); share < 0.15 || share > 0.32 {
		t.Errorf("FPU area share %.2f, want ~0.24", share)
	}
	growth := halfFX.Total() / big.Total()
	if growth < 1.0 || growth > 1.06 {
		t.Errorf("HALF+FX area growth %.3f, want ~1.027", growth)
	}
	if half.Area[IQ] >= big.Area[IQ] {
		t.Error("HALF's IQ must be smaller than BIG's")
	}
	if little.Total() >= big.Total() {
		t.Error("LITTLE must be smaller than BIG")
	}
	if halfFX.Area[IXU] <= 0 {
		t.Error("HALF+FX must have IXU area")
	}
	if big.Area[IXU] != 0 {
		t.Error("BIG has no IXU")
	}
}

func TestLSQOmissionsSaveEnergy(t *testing.T) {
	dev := config.DefaultDevice()
	full := synthetic(0.5)
	omitted := synthetic(0.5)
	// Omissions show up as reduced search/write counts.
	omitted.Counters.LQSearches /= 2
	omitted.Counters.LQWrites /= 2
	ef := Estimate(config.HalfFX(), dev, full)
	eo := Estimate(config.HalfFX(), dev, omitted)
	if eo.Dynamic[LSQ] >= ef.Dynamic[LSQ] {
		t.Error("LSQ omissions must reduce LSQ energy")
	}
}

// TestCalibrationWithinGeometryBand checks the hand-calibrated linear
// constants of params.go against the first-principles CACTI-lite array
// model: each must sit within a small factor of its geometry-derived
// per-(entry×port) value, so the calibration is physics-shaped.
func TestCalibrationWithinGeometryBand(t *testing.T) {
	p := defaultParams
	within := func(name string, calibrated, derived, band float64) {
		t.Helper()
		r := calibrated / derived
		if r < 1/band || r > band {
			t.Errorf("%s: calibrated %.3g vs geometry %.3g (ratio %.2f, band %.1fx)",
				name, calibrated, derived, r, band)
		}
	}
	iq := IQGeometry(64, 4, 3)
	within("IQPerEntryPort", p.IQPerEntryPort, iq.PerEntryPortEquivalent(iq.ReadEnergy()), 4)
	lsq := LSQGeometry(32, 2)
	within("LSQ search", p.LSQPerEntryPort*32*2/2, lsq.SearchEnergy(), 4)
	prf := PRFGeometry(224, 6, 3)
	within("RFPerEntryPort", p.RFPerEntryPort, prf.PerEntryPortEquivalent(prf.ReadEnergy()), 4)
	rat := RATGeometry(3)
	within("RATAccess", p.RATAccess, rat.ReadEnergy(), 4)
}

func TestArrayGeometryScaling(t *testing.T) {
	// Use arrays large enough that the bitline term dominates the fixed
	// peripheral overhead, where the paper's entries×ports
	// proportionality (Section V-C) must show cleanly.
	small := ArrayGeometry{Entries: 512, Bits: 80, RPorts: 2, WPorts: 3, CAMTagBits: 16}
	big := ArrayGeometry{Entries: 1024, Bits: 80, RPorts: 4, WPorts: 3, CAMTagBits: 16}
	r := small.ReadEnergy() / big.ReadEnergy()
	if r < 0.2 || r > 0.55 {
		t.Errorf("half-capacity/half-width geometry read ratio = %.2f, want ~1/3", r)
	}
	s := small.SearchEnergy() / big.SearchEnergy()
	if s < 0.2 || s > 0.55 {
		t.Errorf("CAM search ratio = %.2f, want ~1/3", s)
	}
	// At IQ-sized arrays the fixed peripheral overhead softens the ratio,
	// which is why the calibrated IQ constants (not raw geometry) carry
	// the figure-level claims.
	iqSmall := IQGeometry(32, 2, 3)
	iqBig := IQGeometry(64, 4, 3)
	if ratio := iqSmall.ReadEnergy() / iqBig.ReadEnergy(); ratio >= 1 {
		t.Errorf("smaller IQ must cost less per access (ratio %.2f)", ratio)
	}
	if big.WriteEnergy() <= big.ReadEnergy()*0.8 {
		t.Error("writes should cost at least comparably to reads")
	}
	if (ArrayGeometry{Entries: 8, Bits: 8}).SearchEnergy() != 0 {
		t.Error("non-CAM arrays have no search energy")
	}
	if addrBits(1) != 1 || addrBits(64) != 6 || addrBits(65) != 7 {
		t.Error("addrBits broken")
	}
}
