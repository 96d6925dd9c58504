package fxa

// One benchmark per table and figure of the paper's evaluation
// (Section VI). Each benchmark regenerates its artifact — the same rows or
// series the paper reports — prints it once, and reports the headline
// value as a custom benchmark metric.
//
// The per-benchmark dynamic instruction budget is 60k by default (the
// paper simulates 100M per program on a native-code simulator; the shapes
// stabilize far earlier on the proxy kernels). Set -benchtime=1x to run
// each exactly once.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"fxa/internal/energy"
	"fxa/internal/report"
)

// benchInsts returns the per-run instruction budget, overridable with
// FXA_BENCH_INSTS.
func benchInsts() uint64 {
	if s := os.Getenv("FXA_BENCH_INSTS"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 60_000
}

// The main sweep is shared by every figure that derives from it.
var (
	evalOnce sync.Once
	evalData *Evaluation
	evalErr  error
)

func sharedEval(b *testing.B) *Evaluation {
	b.Helper()
	evalOnce.Do(func() {
		evalData, _, evalErr = RunEvaluation(context.Background(), 0, benchInsts(), SweepOptions{Workers: 1})
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evalData
}

var printOnce sync.Map

// emit prints an artifact once per process (benchmarks run with growing
// b.N; the table should not repeat).
func emit(name string, artifact fmt.Stringer) {
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		fmt.Printf("\n%s\n", artifact)
	}
}

func BenchmarkTable1Configs(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = Table1()
	}
	emit("table1", t)
}

func BenchmarkTable2Device(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = Table2()
	}
	emit("table2", t)
}

func BenchmarkFigure7IPC(b *testing.B) {
	ev := sharedEval(b)
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = ev.Figure7Table()
	}
	emit("fig7", t)
	b.ReportMetric(ev.GeomeanRelIPC("HALF+FX", GroupALL), "relIPC-HALF+FX(paper:1.057)")
	b.ReportMetric(ev.GeomeanRelIPC("HALF+FX", GroupINT), "relIPC-INT(paper:1.074)")
	b.ReportMetric(ev.GeomeanRelIPC("LITTLE", GroupALL), "relIPC-LITTLE(paper:0.60)")
}

func BenchmarkFigure8aEnergy(b *testing.B) {
	ev := sharedEval(b)
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = ev.Figure8aTable()
	}
	emit("fig8a", t)
	b.ReportMetric(ev.TotalEnergyRatio("HALF+FX"), "energy-HALF+FX(paper:0.83)")
	b.ReportMetric(ev.EnergyRatio("HALF+FX", energy.IQ), "IQenergy-HALF+FX(paper:0.14)")
	b.ReportMetric(ev.EnergyRatio("HALF+FX", energy.LSQ), "LSQenergy-HALF+FX(paper:0.77)")
}

func BenchmarkFigure8bFUEnergy(b *testing.B) {
	ev := sharedEval(b)
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = ev.Figure8bTable()
	}
	emit("fig8b", t)
	fu := ev.MeanFUEnergy()
	b.ReportMetric(fu["HALF+FX"].Total(), "FUenergy-HALF+FX(paper:1.093)")
}

func BenchmarkFigure9aArea(b *testing.B) {
	var whole *report.Table
	for i := 0; i < b.N; i++ {
		whole, _ = Figure9Tables()
	}
	emit("fig9a", whole)
	bigA, fxA := AreaOf(Big()), AreaOf(HalfFX())
	b.ReportMetric(fxA.Total()/bigA.Total(), "area-HALF+FX(paper:1.027)")
}

func BenchmarkFigure9bAreaDetail(b *testing.B) {
	var detail *report.Table
	for i := 0; i < b.N; i++ {
		_, detail = Figure9Tables()
	}
	emit("fig9b", detail)
}

func BenchmarkFigure10PER(b *testing.B) {
	ev := sharedEval(b)
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = ev.Figure10Table()
	}
	emit("fig10", t)
	b.ReportMetric(ev.PER("HALF+FX", GroupALL), "PER-HALF+FX(paper:1.25)")
	if pl := ev.PER("LITTLE", GroupALL); pl > 0 {
		b.ReportMetric(ev.PER("HALF+FX", GroupALL)/pl, "PERvsLITTLE(paper:1.27)")
	}
}

var (
	fig11Once sync.Once
	fig11Data *report.Series
	fig11Err  error
)

func BenchmarkFigure11IXUConfig(b *testing.B) {
	fig11Once.Do(func() {
		fig11Data, _, fig11Err = RunFigure11(context.Background(), benchInsts(), SweepOptions{Workers: 1})
	})
	if fig11Err != nil {
		b.Fatal(fig11Err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		ys := fig11Data.Y[len(fig11Data.Y)-1] // [3,1,1]
		last = ys[1]                          // opt bypass
	}
	emit("fig11", fig11Data)
	b.ReportMetric(last, "IPC-[3,1,1]opt(paper:0.995)")
}

var (
	fig1213Once sync.Once
	fig12Data   *report.Series
	fig13Data   *report.Series
	fig1213Err  error
)

func shared1213(b *testing.B) {
	b.Helper()
	fig1213Once.Do(func() {
		fig12Data, fig13Data, _, fig1213Err = RunFigure1213(context.Background(), benchInsts(), SweepOptions{Workers: 1})
	})
	if fig1213Err != nil {
		b.Fatal(fig1213Err)
	}
}

func BenchmarkFigure12IXURate(b *testing.B) {
	shared1213(b)
	var d1, d3 float64
	for i := 0; i < b.N; i++ {
		d1 = fig12Data.Y[0][2] // ALL at depth 1
		d3 = fig12Data.Y[2][2] // ALL at depth 3
	}
	emit("fig12", fig12Data)
	b.ReportMetric(d1, "rate-depth1(paper:0.35)")
	b.ReportMetric(d3, "rate-depth3(paper:0.54)")
}

func BenchmarkFigure13IXUDepth(b *testing.B) {
	shared1213(b)
	var d3 float64
	for i := 0; i < b.N; i++ {
		d3 = fig13Data.Y[2][2]
	}
	emit("fig13", fig13Data)
	b.ReportMetric(d3, "relIPC-depth3")
}

func BenchmarkSectionIVAReadyRates(b *testing.B) {
	ev := sharedEval(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = ev.ReadyAtEntryRate("HALF+FX")
	}
	b.ReportMetric(rate, "readyAtEntry(paper:0.055)")
	b.ReportMetric(ev.GeomeanIXURate("HALF+FX", GroupALL), "IXUrate(paper:0.54)")
}
