package fxa

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// switches one mechanism off (or on, for the RENO extension) and reports
// the headline impact on a representative workload set. These are not
// paper figures; they quantify why each mechanism is in the design.

import (
	"context"
	"testing"

	"fxa/internal/bpred"
)

// ablationSet is a small representative slice of the catalog: INT-heavy,
// branchy, memory-bound, and FP.
var ablationSet = []string{"libquantum", "gobmk", "mcf", "lbm"}

func ablRun(b *testing.B, m Model) (ipc, rate float64) {
	b.Helper()
	n := benchInsts()
	logIPC, logRate := 0.0, 0.0
	cnt, rcnt := 0, 0
	for _, name := range ablationSet {
		w, err := WorkloadByName(name)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(context.Background(), Spec{Model: m, Workload: w, MaxInsts: n})
		if err != nil {
			b.Fatal(err)
		}
		logIPC += ln(res.Counters.IPC())
		cnt++
		if r := res.Counters.IXURate(); r > 0 {
			logRate += ln(r)
			rcnt++
		}
	}
	ipc = exp(logIPC / float64(cnt))
	if rcnt > 0 {
		rate = exp(logRate / float64(rcnt))
	}
	return ipc, rate
}

// BenchmarkAblationBypassOmission quantifies Section III-A2: omitting
// IXU bypass paths beyond distance 2 (the paper's optimization) versus a
// full network and versus distance 1.
func BenchmarkAblationBypassOmission(b *testing.B) {
	var full, opt2, opt1 float64
	for i := 0; i < b.N; i++ {
		m := HalfFX()
		m.IXU.BypassMaxDist = 0
		full, _ = ablRun(b, m)
		m.IXU.BypassMaxDist = 2
		opt2, _ = ablRun(b, m)
		m.IXU.BypassMaxDist = 1
		opt1, _ = ablRun(b, m)
	}
	b.ReportMetric(opt2/full, "opt2-vs-full(paper:~0.995)")
	b.ReportMetric(opt1/full, "opt1-vs-full")
}

// BenchmarkAblationStoreSets removes memory-dependence prediction by
// noting the violation/replay cost: we compare the default against a
// model with a tiny (effectively useless) predictor via violation counts.
func BenchmarkAblationScoreboardStage(b *testing.B) {
	// FXA adds one front-end stage for the sequential scoreboard→PRF
	// read (Section III-B). Quantify the cost of that stage by comparing
	// HALF+FX against a hypothetical variant without it.
	var with, without float64
	for i := 0; i < b.N; i++ {
		m := HalfFX()
		with, _ = ablRun(b, m)
		m.FrontendDepth-- // net pipeline depth as if the stage were free
		without, _ = ablRun(b, m)
	}
	b.ReportMetric(with/without, "with-vs-without-sb-stage")
}

// BenchmarkAblationRENO measures the Section VII-C extension: move
// elimination composes with FXA.
func BenchmarkAblationRENO(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		m := HalfFX()
		off, _ = ablRun(b, m)
		m.RENO = true
		on, _ = ablRun(b, m)
	}
	b.ReportMetric(on/off, "RENO-IPC-gain")
}

// BenchmarkAblationPredictors sweeps direction-predictor quality
// (Table I uses gshare): FXA's early branch resolution softens the cost
// of a weaker predictor.
func BenchmarkAblationPredictors(b *testing.B) {
	kinds := []bpred.Kind{bpred.GShare, bpred.Tournament, bpred.Bimodal, bpred.Static}
	vals := make([]float64, len(kinds))
	for i := 0; i < b.N; i++ {
		for k, kind := range kinds {
			m := HalfFX()
			m.Bpred.Kind = kind
			vals[k], _ = ablRun(b, m)
		}
	}
	for k, kind := range kinds {
		b.ReportMetric(vals[k]/vals[0], "IPC-"+kind.String())
	}
}

// BenchmarkAblationMSHR sweeps memory-level parallelism limits.
func BenchmarkAblationMSHR(b *testing.B) {
	sizes := []int{1, 4, 8, 16}
	vals := make([]float64, len(sizes))
	for i := 0; i < b.N; i++ {
		for k, s := range sizes {
			m := Big()
			m.MSHRs = s
			vals[k], _ = ablRun(b, m)
		}
	}
	for k, s := range sizes {
		b.ReportMetric(vals[k]/vals[len(sizes)-1], "IPC-mshr-"+itoa(s))
	}
}

// BenchmarkAblationIXUMemArbitration quantifies Section II-D3: what the
// IXU loses if it may not execute loads/stores at all (no LSQ/L1D port
// sharing with the OXU). Approximated by giving the OXU every port via a
// single-FU memory configuration versus the default.
func BenchmarkAblationIXUMemArbitration(b *testing.B) {
	var dflt, onePort float64
	for i := 0; i < b.N; i++ {
		m := HalfFX()
		dflt, _ = ablRun(b, m)
		m.MemFUs = 1
		onePort, _ = ablRun(b, m)
	}
	b.ReportMetric(onePort/dflt, "one-mem-port-vs-two")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
