package perfgate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fxa/internal/report"
	"fxa/internal/stats"
)

// alpha is the significance level of the one-sided sign test.
const alpha = 0.05

// Verdict classifies one (benchmark, metric) comparison.
type Verdict int

const (
	VerdictOK         Verdict = iota // no significant shift beyond the threshold
	VerdictRegression                // significantly worse beyond the threshold: gates
	VerdictImproved                  // significantly better beyond 1/threshold
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictRegression:
		return "REGRESSION"
	case VerdictImproved:
		return "improved"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Comparison is the gate's judgment of one metric of one benchmark over
// the pairs of a run.
type Comparison struct {
	Bench string
	Unit  string

	BaseMedian, HeadMedian float64

	// Ratio is the median per-pair worseness ratio: >1 means the change
	// is worse (slower / more allocations for lower-is-better units,
	// lower throughput for higher-is-better ones).
	Ratio float64

	// Pairs is the number of pairs compared. Beyond counts the pairs
	// whose ratio lies beyond the threshold on Ratio's side of 1 (above
	// the threshold when Ratio >= 1, below its reciprocal otherwise),
	// and P is the one-sided sign-test p-value of that count.
	Pairs, Beyond int
	P             float64

	Verdict Verdict
}

// GateResult is the outcome of comparing one suite's two sides.
type GateResult struct {
	SuiteName   string
	Threshold   float64
	Comparisons []Comparison

	// OneSided lists the metrics measured on only one side, as
	// "base|head: Bench unit": a benchmark added, deleted or renamed
	// by the change. They do not gate.
	OneSided []string
}

// higherBetter lists the units where larger is better; everything else
// (ns/op, ns/inst, B/op, allocs/op, ...) is lower-is-better.
func higherBetter(unit string) bool {
	switch unit {
	case "MB/s", "Minst/s", "det-Minst/s", "det-Minst/wall-s", "ff-Minst/s":
		return true
	}
	return false
}

// absFloor returns the minimum median worsening (in the unit's own
// scale) required to gate. Integer-like allocation metrics get a floor
// so a 1→2 alloc change (ratio 2.0!) on an otherwise-clean benchmark
// does not fail the gate, while 1→3 on the O(1)-snapshot contract
// still does.
func absFloor(unit string) float64 {
	switch unit {
	case "allocs/op":
		return 1.5
	case "B/op":
		return 256
	}
	return 0
}

// Compare judges the change's samples (head) against the parent's
// (base), pair by pair: sample i of a metric on each side came from
// pair i of the run. A metric regresses when a one-sided sign test
// shows, at 95% confidence, that its median pair ratio exceeds
// threshold (it counts the pairs whose ratio exceeds the threshold
// itself, not 1) and its median worsening clears the unit's floor;
// improvements use the mirror-image test against 1/threshold.
func Compare(suite string, base, head Measurements, threshold float64) *GateResult {
	g := &GateResult{SuiteName: suite, Threshold: threshold}
	for _, bench := range benchNames(base, head) {
		for _, unit := range unitsOf(base[bench], head[bench]) {
			b, h := base[bench][unit], head[bench][unit]
			switch {
			case len(h) == 0:
				g.OneSided = append(g.OneSided, "base: "+trimBench(bench)+" "+unit)
			case len(b) == 0:
				g.OneSided = append(g.OneSided, "head: "+trimBench(bench)+" "+unit)
			default:
				g.Comparisons = append(g.Comparisons, compareMetric(bench, unit, b, h, threshold))
			}
		}
	}
	return g
}

func compareMetric(bench, unit string, base, head []float64, threshold float64) Comparison {
	n := min(len(base), len(head))
	ratios := make([]float64, n)
	worsening := make([]float64, n) // per pair, in the unit's scale
	var above, below int
	for i := range n {
		worse, better := head[i], base[i]
		if higherBetter(unit) {
			worse, better = better, worse
		}
		worsening[i] = worse - better
		switch {
		case better > 0:
			ratios[i] = worse / better
		case worse > better:
			ratios[i] = math.Inf(1)
		default:
			ratios[i] = 1
		}
		if ratios[i] > threshold {
			above++
		} else if ratios[i] < 1/threshold {
			below++
		}
	}
	c := Comparison{
		Bench:      bench,
		Unit:       unit,
		BaseMedian: stats.Median(base),
		HeadMedian: stats.Median(head),
		Ratio:      stats.Median(ratios),
		Pairs:      n,
	}
	pWorse, pBetter := stats.SignTestTail(above, n), stats.SignTestTail(below, n)
	if c.Ratio >= 1 {
		c.Beyond, c.P = above, pWorse
	} else {
		c.Beyond, c.P = below, pBetter
	}
	medWorse := stats.Median(worsening)
	switch {
	case pWorse < alpha && medWorse > absFloor(unit):
		c.Verdict = VerdictRegression
	case pBetter < alpha && -medWorse > absFloor(unit):
		c.Verdict = VerdictImproved
	}
	return c
}

// benchNames returns the benchmarks measured on either side, sorted.
func benchNames(base, head Measurements) []string {
	var names []string
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// unitsOf returns the units recorded for one benchmark on either side,
// sorted with the primary timing metrics first (ns/inst, then ns/op) and
// the rest alphabetical — the order the table prints them in.
func unitsOf(sides ...map[string][]float64) []string {
	seen := make(map[string]bool)
	var units []string
	for _, byUnit := range sides {
		for u := range byUnit {
			if !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
	}
	rank := func(u string) int {
		switch u {
		case "ns/inst":
			return 0
		case "ns/op":
			return 1
		default:
			return 2
		}
	}
	sort.Slice(units, func(i, j int) bool {
		ri, rj := rank(units[i]), rank(units[j])
		if ri != rj {
			return ri < rj
		}
		return units[i] < units[j]
	})
	return units
}

// Regressions returns the gating comparisons, for error messages that
// name the guilty metrics.
func (g *GateResult) Regressions() []Comparison {
	var out []Comparison
	for _, c := range g.Comparisons {
		if c.Verdict == VerdictRegression {
			out = append(out, c)
		}
	}
	return out
}

// Failed reports whether the gate should exit non-zero: any regression.
func (g *GateResult) Failed() bool { return len(g.Regressions()) > 0 }

// Summary renders the one-line outcome, e.g.
//
//	suite core: 48 metrics over 5 pairs, 0 regressions, 2 improved
func (g *GateResult) Summary() string {
	var reg, imp, pairs int
	for _, c := range g.Comparisons {
		switch c.Verdict {
		case VerdictRegression:
			reg++
		case VerdictImproved:
			imp++
		}
		pairs = max(pairs, c.Pairs)
	}
	s := fmt.Sprintf("suite %s: %d metrics over %d pairs, %d regressions, %d improved",
		g.SuiteName, len(g.Comparisons), pairs, reg, imp)
	if len(g.OneSided) > 0 {
		s += fmt.Sprintf(", %d one-sided", len(g.OneSided))
	}
	return s
}

// Table renders the paired comparison as a report.Table with the gate
// policy in the footer. Every metric measured on both sides appears; the
// verdict column names the regressions the gate fails on.
func (g *GateResult) Table() *report.Table {
	t := &report.Table{
		Title:   "perfgate: suite " + g.SuiteName,
		Headers: []string{"benchmark", "metric", "parent", "change", "ratio", "beyond", "p", "verdict"},
	}
	for _, c := range g.Comparisons {
		t.AddRow(
			trimBench(c.Bench),
			c.Unit,
			fmt.Sprintf("%.4g", c.BaseMedian),
			fmt.Sprintf("%.4g", c.HeadMedian),
			fmt.Sprintf("%.3f", c.Ratio),
			fmt.Sprintf("%d/%d", c.Beyond, c.Pairs),
			fmt.Sprintf("%.3f", c.P),
			c.Verdict.String(),
		)
	}
	t.Footer = append(t.Footer, fmt.Sprintf(
		"parent/change = medians; ratio = median pair ratio (>1 worse); beyond = pairs past %.2f (or 1/%.2f); REGRESSION = one-sided sign test p < %.2f and median worsening above the unit's floor (DESIGN.md §8.5)",
		g.Threshold, g.Threshold, alpha))
	if len(g.OneSided) > 0 {
		t.Footer = append(t.Footer, "measured on one side only, not gated: "+strings.Join(g.OneSided, ", "))
	}
	return t
}

// trimBench drops the "Benchmark" prefix for narrower tables.
func trimBench(name string) string {
	return strings.TrimPrefix(name, "Benchmark")
}
