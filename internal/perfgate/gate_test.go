package perfgate

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// pairs builds the two sides of a run of one benchmark: base carries the
// given ns/inst and allocs/op samples, head the same samples scaled per
// pair by nsScale and allocScale.
func pairs(name string, nsInst, allocs []float64, nsScale, allocScale float64) (base, head Measurements) {
	return Measurements{name: {"ns/inst": nsInst, "allocs/op": allocs}},
		Measurements{name: {"ns/inst": scaled(nsInst, nsScale), "allocs/op": scaled(allocs, allocScale)}}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// comparison returns g's comparison of unit, failing the test if absent.
func comparison(t *testing.T, g *GateResult, unit string) Comparison {
	t.Helper()
	for _, c := range g.Comparisons {
		if c.Unit == unit {
			return c
		}
	}
	t.Fatalf("no %s comparison in:\n%s", unit, g.Table())
	return Comparison{}
}

var (
	// Five pairs whose two sides drift together, as they do on a host
	// whose speed changes between pairs.
	driftNsInst = []float64{200, 260, 150, 240, 170}
	quietAllocs = []float64{160, 160, 160, 160, 160}
)

// TestGateIdenticalDistributionPasses: identical pairs must pass — the
// acceptance self-test's negative arm.
func TestGateIdenticalDistributionPasses(t *testing.T) {
	base, head := pairs("BenchmarkCoreHotLoop/BIG/mcf", driftNsInst, quietAllocs, 1, 1)
	g := Compare("core", base, head, 1.10)
	if g.Failed() {
		t.Fatalf("identical pairs failed the gate:\n%s", g.Table())
	}
	for _, c := range g.Comparisons {
		if c.Verdict != VerdictOK || c.Ratio != 1 || c.Beyond != 0 || c.P != 1 {
			t.Errorf("%s %s: %+v, want ok at ratio 1, 0 beyond, p 1", c.Bench, c.Unit, c)
		}
	}
}

// TestGateInjectedSlowdownFails: a 2x ns/inst slowdown in every pair
// must fail the gate, and the regression table must name the metric —
// the acceptance self-test's positive arm.
func TestGateInjectedSlowdownFails(t *testing.T) {
	base, head := pairs("BenchmarkCoreHotLoop/BIG/mcf", driftNsInst, quietAllocs, 2, 1)
	g := Compare("core", base, head, 1.10)
	regs := g.Regressions()
	if !g.Failed() || len(regs) != 1 || regs[0].Unit != "ns/inst" {
		t.Fatalf("regressions = %+v, want exactly ns/inst:\n%s", regs, g.Table())
	}
	if r := regs[0]; r.Ratio != 2 || r.Beyond != 5 || r.Pairs != 5 || r.P != 1.0/32 {
		t.Errorf("regression = %+v, want ratio 2, 5/5 beyond, p 1/32", r)
	}
	tbl := g.Table().String()
	for _, want := range []string{"CoreHotLoop/BIG/mcf", "ns/inst", "REGRESSION", "5/5"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("regression table missing %q:\n%s", want, tbl)
		}
	}
	if c := comparison(t, g, "allocs/op"); c.Verdict != VerdictOK {
		t.Errorf("untouched allocs/op verdict %s, want ok", c.Verdict)
	}
}

// TestGateShiftedMedianBelowThresholdPasses: a consistent but practically
// small shift (5% in every pair) stays below the 10% threshold.
func TestGateShiftedMedianBelowThresholdPasses(t *testing.T) {
	base, head := pairs("B", driftNsInst, quietAllocs, 1.05, 1)
	if g := Compare("core", base, head, 1.10); g.Failed() {
		t.Fatalf("5%% shift failed the 10%% gate:\n%s", g.Table())
	}
}

// TestGateSingleOutlierRobust: one wild pair (10x) must not gate; the
// sign test counts it once, however far it lies.
func TestGateSingleOutlierRobust(t *testing.T) {
	base, head := pairs("B", driftNsInst, quietAllocs, 1, 1)
	head["B"]["ns/inst"][2] *= 10
	g := Compare("core", base, head, 1.10)
	if g.Failed() {
		t.Fatalf("single wild pair failed the gate:\n%s", g.Table())
	}
	if c := comparison(t, g, "ns/inst"); c.Ratio != 1 || c.Beyond != 1 {
		t.Errorf("ns/inst = %+v, want median ratio 1 with 1 pair beyond", c)
	}
}

// TestGateCountsPairsBeyondThresholdNotOne: every pair worse than 1 with
// a median ratio above the threshold still passes when one pair lies
// inside the threshold — the sign test counts pairs beyond the threshold
// itself, which holds self-comparisons of noisy timings to a few percent
// of gate runs (DESIGN.md §8.5).
func TestGateCountsPairsBeyondThresholdNotOne(t *testing.T) {
	base := Measurements{"B": {"ns/inst": {100, 100, 100, 100, 100}}}
	head := Measurements{"B": {"ns/inst": {105, 120, 130, 125, 115}}}
	g := Compare("core", base, head, 1.10)
	if g.Failed() {
		t.Fatalf("4 of 5 pairs beyond 1.10 failed the gate:\n%s", g.Table())
	}
	if c := comparison(t, g, "ns/inst"); c.Ratio != 1.2 || c.Beyond != 4 || c.P != 6.0/32 {
		t.Errorf("ns/inst = %+v, want ratio 1.2, 4/5 beyond, p 6/32", c)
	}
	head["B"]["ns/inst"][0] = 111
	if g := Compare("core", base, head, 1.10); !g.Failed() {
		t.Fatalf("5 of 5 pairs beyond 1.10 passed the gate:\n%s", g.Table())
	}
}

// TestGateAllocRegression: doubled allocs/op (the §8.2 allocation
// discipline), 2 -> 4 in every pair, gates.
func TestGateAllocRegression(t *testing.T) {
	two := []float64{2, 2, 2, 2, 2}
	base, head := pairs("B", driftNsInst, two, 1, 2)
	regs := Compare("core", base, head, 1.10).Regressions()
	if len(regs) != 1 || regs[0].Unit != "allocs/op" {
		t.Fatalf("regressions = %+v, want exactly allocs/op", regs)
	}
}

// TestGateAllocJitterFloor: 1 -> 2 allocs/op is a 2x ratio in every pair
// but below the absolute floor — must not gate (the O(1)-clone
// benchmark's guard against ±1 jitter) — while 1 -> 4 must.
func TestGateAllocJitterFloor(t *testing.T) {
	one := []float64{1, 1, 1, 1, 1}
	base, head := pairs("B", driftNsInst, one, 1, 2)
	if g := Compare("core", base, head, 1.10); g.Failed() {
		t.Fatalf("1->2 allocs/op gated despite the floor:\n%s", g.Table())
	}
	base, head = pairs("B", driftNsInst, one, 1, 4)
	if g := Compare("core", base, head, 1.10); !g.Failed() {
		t.Fatalf("1->4 allocs/op passed:\n%s", g.Table())
	}
}

// TestGateImprovementReported: a 2x speedup is reported as improved,
// never as a failure.
func TestGateImprovementReported(t *testing.T) {
	base, head := pairs("B", driftNsInst, quietAllocs, 0.5, 1)
	g := Compare("core", base, head, 1.10)
	if g.Failed() {
		t.Fatalf("improvement failed the gate:\n%s", g.Table())
	}
	if c := comparison(t, g, "ns/inst"); c.Verdict != VerdictImproved || c.Ratio != 0.5 || c.Beyond != 5 {
		t.Errorf("2x speedup = %+v, want improved at ratio 0.5 with 5/5 beyond", c)
	}
}

// TestGateHigherIsBetterMetric: for throughput units a *drop* is the
// regression direction.
func TestGateHigherIsBetterMetric(t *testing.T) {
	throughput := []float64{50, 40, 60, 45, 55}
	mk := func(v []float64) Measurements {
		return Measurements{"BenchmarkSamplingEndToEnd": {"det-Minst/wall-s": v}}
	}
	g := Compare("sampling", mk(throughput), mk(scaled(throughput, 0.5)), 1.10)
	regs := g.Regressions()
	if len(regs) != 1 || regs[0].Unit != "det-Minst/wall-s" || regs[0].Ratio != 2 {
		t.Fatalf("halved throughput: regressions = %+v, want det-Minst/wall-s at worseness ratio 2", regs)
	}
	g = Compare("sampling", mk(throughput), mk(scaled(throughput, 2)), 1.10)
	if c := comparison(t, g, "det-Minst/wall-s"); g.Failed() || c.Verdict != VerdictImproved {
		t.Fatalf("doubled throughput: %+v, want improved:\n%s", c, g.Table())
	}
}

// TestGateOneSidedMetricDoesNotGate: a metric measured on only one side
// (a benchmark or unit added, deleted or renamed by the change) is
// listed in the footer and does not gate.
func TestGateOneSidedMetricDoesNotGate(t *testing.T) {
	base := Measurements{
		"BenchmarkKept":    {"ns/inst": driftNsInst},
		"BenchmarkDeleted": {"ns/inst": driftNsInst},
	}
	head := Measurements{
		"BenchmarkKept":  {"ns/inst": driftNsInst, "ns/span-inst": driftNsInst},
		"BenchmarkAdded": {"ns/inst": scaled(driftNsInst, 100)},
	}
	g := Compare("core", base, head, 1.10)
	if g.Failed() || len(g.Comparisons) != 1 || g.Comparisons[0].Bench != "BenchmarkKept" {
		t.Fatalf("want only Kept ns/inst compared, passing:\n%s", g.Table())
	}
	want := []string{"head: Added ns/inst", "base: Deleted ns/inst", "head: Kept ns/span-inst"}
	if !reflect.DeepEqual(g.OneSided, want) {
		t.Errorf("OneSided = %q, want %q", g.OneSided, want)
	}
	if tbl := g.Table().String(); !strings.Contains(tbl, "not gated: head: Added ns/inst, base: Deleted ns/inst") {
		t.Errorf("one-sided metrics not listed in the footer:\n%s", tbl)
	}
}

// TestGateSummary pins the one-line summary shape CI prints.
func TestGateSummary(t *testing.T) {
	base, head := pairs("B", driftNsInst, quietAllocs, 2, 1)
	head["C"] = map[string][]float64{"ns/op": {1}}
	if got, want := Compare("core", base, head, 1.10).Summary(),
		"suite core: 2 metrics over 5 pairs, 1 regressions, 0 improved, 1 one-sided"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func TestUnitsOfOrdering(t *testing.T) {
	got := unitsOf(
		map[string][]float64{"B/op": {1}, "ns/inst": {1}},
		map[string][]float64{"allocs/op": {1}, "ns/op": {1}, "ns/inst": {1}},
	)
	want := []string{"ns/inst", "ns/op", "B/op", "allocs/op"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unitsOf = %v, want %v", got, want)
	}
}

// TestGateSelfComparisonFalsePositiveRate: comparing code with itself
// on a noisy host must rarely fail. Alternating self-pairs of the core
// suite's binary spread with a log-ratio sd of 0.15 (DESIGN.md §8.5);
// at that spread, over the ~30 timing metrics of a gate run at the
// default 5 pairs, the gate may fail at most 1 run in 20. A sign test
// against 1 instead (all pairs worse than 1 and a median ratio above
// the threshold) fails about 40% of such runs.
func TestGateSelfComparisonFalsePositiveRate(t *testing.T) {
	const (
		runs    = 2000
		metrics = 30
		count   = 5
		sd      = 0.15
	)
	rng := rand.New(rand.NewSource(1))
	failed := 0
	for run := 0; run < runs; run++ {
		base, head := Measurements{}, Measurements{}
		for m := 0; m < metrics; m++ {
			name := "BenchmarkM" + strconv.Itoa(m)
			for i := 0; i < count; i++ {
				b := 200 * math.Exp(0.3*rng.NormFloat64()) // the host's drift between pairs
				base.add(name, "ns/inst", b)
				head.add(name, "ns/inst", b*math.Exp(sd*rng.NormFloat64()))
			}
		}
		if Compare("core", base, head, 1.10).Failed() {
			failed++
		}
	}
	rate := float64(failed) / runs
	t.Logf("%d of %d self-comparison runs failed (%.1f%%)", failed, runs, 100*rate)
	if rate > 1.0/20 {
		t.Errorf("self-comparison failed %.1f%% of gate runs, want at most 5%%", 100*rate)
	}
}
