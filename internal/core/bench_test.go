package core

import (
	"context"
	"fmt"
	"testing"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/workload"
)

// benchTrace builds the named proxy and returns a stream over a freshly
// loaded machine capped at insts records, as workload.NewTrace does. It
// runs outside the timer, and it materialises every page of the program's
// generated segments with one read per page, so the timed run measures
// the timing model, not first-touch page generation.
func benchTrace(b *testing.B, name string, insts uint64) *emu.Stream {
	b.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(prog)
	for _, s := range prog.Segments {
		for off := uint64(0); off < s.Size; off += 4096 {
			m.Mem.Load8(s.Addr + off)
		}
	}
	return emu.NewStream(m, insts)
}

// benchRun simulates insts dynamic instructions of workload w on model m,
// reporting ns and allocations per simulated instruction. This is the
// per-cycle hot-loop benchmark guarding the allocation discipline of
// DESIGN.md §8.2: run it with
//
//	go test -bench BenchmarkCore -benchmem ./internal/core
//
// and watch the `allocs/op` column (op = one full simulation of `insts`
// instructions). The steady-state loop must not allocate, so allocs/op
// should stay flat when `insts` grows.
func benchRun(b *testing.B, m config.Model, name string, insts uint64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		co, err := New(m, benchTrace(b, name, insts))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := co.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Counters.Committed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/inst")
}

// BenchmarkCoreHotLoop measures the cycle-level timing model itself (trace
// generation and core construction excluded from the timer) on one INT and
// one FP workload for the conventional BIG core and the FXA HALF+FX core.
func BenchmarkCoreHotLoop(b *testing.B) {
	const insts = 60_000
	for _, tc := range []struct {
		model config.Model
		work  string
	}{
		{config.Big(), "libquantum"},
		{config.Big(), "mcf"},
		{config.HalfFX(), "libquantum"},
		{config.HalfFX(), "mcf"},
		{config.HalfFX(), "namd"},
	} {
		b.Run(fmt.Sprintf("%s/%s", tc.model.Name, tc.work), func(b *testing.B) {
			benchRun(b, tc.model, tc.work, insts)
		})
	}
}

// BenchmarkCoreFlushHeavy stresses flushFrom: bsearch-like pointer loads
// with stores that trigger memory-order violations and replays.
func BenchmarkCoreFlushHeavy(b *testing.B) {
	benchRun(b, config.HalfFX(), "bzip2", 60_000)
}

// benchEngineRun is benchRun through the engine registry, for models of
// other core kinds (the dual-issue benchmarks below; the blank imports in
// fuzz_test.go register them). Same timing discipline: trace generation
// and construction excluded, ns/inst reported.
func benchEngineRun(b *testing.B, m config.Model, name string, insts uint64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := engine.New(m, benchTrace(b, name, insts))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Counters.Committed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/inst")
}

// BenchmarkCoreDualIssue measures the dual-issue in-order core built on
// the shared internal/pipeline stage library, against its single-issue
// baseline, on one INT and one FP-interleaved workload. Guards the cost
// of the pairing check in the issue loop.
func BenchmarkCoreDualIssue(b *testing.B) {
	const insts = 60_000
	for _, tc := range []struct {
		model config.Model
		work  string
	}{
		{config.Dual(), "libquantum"},
		{config.Dual(), "namd"},
		{config.DualSI(), "libquantum"},
	} {
		b.Run(fmt.Sprintf("%s/%s", tc.model.Name, tc.work), func(b *testing.B) {
			benchEngineRun(b, tc.model, tc.work, insts)
		})
	}
}

// BenchmarkCoreMemBound measures the memory-bound regime that motivates
// idle-cycle skipping: mcf's pointer-chasing misses with a single MSHR, so
// the window drains and the core sits for hundreds of cycles per fill.
// Skip-off, this is dominated by iterating idle cycles; skip-on, by the
// misses themselves.
func BenchmarkCoreMemBound(b *testing.B) {
	const insts = 60_000
	for _, base := range []config.Model{config.Big(), config.HalfFX()} {
		m := base
		m.MSHRs = 1
		b.Run(fmt.Sprintf("%s/mcf/mshr1", m.Name), func(b *testing.B) {
			benchRun(b, m, "mcf", insts)
		})
	}
}
