package emu_test

// Fast-forward and snapshot benchmarks. These are the regression signals
// for the functional emulator's two performance contracts (DESIGN.md
// §8.3):
//
//   - BenchmarkEmuFastForward: ns/inst of the block-stepping fast path
//     (Machine.Run in the default FFFast mode). `make bench-emu`
//     re-measures, and `make bench-gate` judges these benchmarks against
//     the live BENCH_emu.json perfgate baseline.
//   - BenchmarkEmuStepForward: the same workloads on the reference
//     one-Step-per-instruction path, so the fast-path ratio is always one
//     benchstat away.
//   - BenchmarkEmuTrace: trace production for detailed runs, the same
//     workloads read as records through Stream.NextBatch in
//     engine-sized batches (DESIGN.md §8.12).
//   - BenchmarkMemoryClone / BenchmarkMachineClone: O(1)-snapshot cost —
//     allocs/op must stay constant as resident memory grows (the COW
//     page-table copy), never scale with it.
//
// Machine setup is excluded from the timed region via StopTimer/StartTimer:
// fast-forward throughput is the quantity under test, and at MB-scale
// footprints setup otherwise dilutes the ns/inst signal several-fold. The
// workload data tables are generated segments that fill on first touch
// (DESIGN.md §8.11), so setup includes materialising every one of their
// pages (materialize) and the timed run never generates a page.

import (
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/workload"
)

// ffBenchWorkloads is the fast-forward benchmark set: two cache-friendly
// kernels, one pointer-chasing DRAM-bound proxy (mcf, the slow extreme)
// and one FP stencil.
var ffBenchWorkloads = []string{"hmmer", "libquantum", "mcf", "GemsFDTD"}

// ffBenchInsts is the per-iteration instruction budget — long enough to
// amortize cold predecode and cache warmup into the noise.
const ffBenchInsts = 200_000

func benchFF(b *testing.B, mode emu.FFMode) {
	for _, name := range ffBenchWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m := emu.New(prog)
				materialize(m, prog)
				m.FF = mode
				b.StartTimer()
				if _, err := m.Run(ffBenchInsts); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ffBenchInsts, "ns/inst")
		})
	}
}

// materialize makes every page of prog's generated segments resident by
// storing its first byte back: a read alone may be served from the
// generator and leave the page absent (DESIGN.md §8.11).
func materialize(m *emu.Machine, prog *asm.Program) {
	for _, s := range prog.Segments {
		for off := uint64(0); off < s.Size; off += 4096 {
			a := s.Addr + off
			m.Mem.Store8(a, m.Mem.Load8(a))
		}
	}
}

func BenchmarkEmuFastForward(b *testing.B) { benchFF(b, emu.FFFast) }

func BenchmarkEmuStepForward(b *testing.B) { benchFF(b, emu.FFStep) }

// BenchmarkEmuTrace reads ffBenchInsts records per iteration through
// Stream.NextBatch in 64-record batches (engine.TraceBatch), reporting
// ns/inst and records per second (Minst/s). Setup and page
// materialisation are outside the timer, as in benchFF.
func BenchmarkEmuTrace(b *testing.B) {
	for _, name := range ffBenchWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]emu.Record, 64)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m := emu.New(prog)
				materialize(m, prog)
				s := emu.NewStream(m, ffBenchInsts)
				b.StartTimer()
				for s.NextBatch(buf) == len(buf) {
				}
				b.StopTimer()
				if s.Err() != nil || m.InstCount != ffBenchInsts {
					b.Fatalf("traced %d records, err %v", m.InstCount, s.Err())
				}
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(sec*1e9/float64(b.N)/ffBenchInsts, "ns/inst")
			b.ReportMetric(float64(b.N)*ffBenchInsts/sec/1e6, "Minst/s")
		})
	}
}

// BenchmarkMemoryClone measures the copy-on-write snapshot at a realistic
// resident footprint (mcf's 8 MB random-access working set, ~2000 pages).
// The allocs/op column is the contract: it must not move when the
// footprint does.
func BenchmarkMemoryClone(b *testing.B) {
	w, _ := workload.ByName("mcf")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(prog)
	if _, err := m.Run(2_000_000); err != nil {
		b.Fatal(err)
	}
	b.Logf("resident footprint: %d pages", m.Mem.Footprint())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Mem.Clone(); c == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkMachineClone is the full snapshot the sampling harness takes at
// every detailed-window boundary: registers, COW memory and the shared
// predecode tables.
func BenchmarkMachineClone(b *testing.B) {
	w, _ := workload.ByName("mcf")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(prog)
	if _, err := m.Run(2_000_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Clone(); c == nil {
			b.Fatal("nil clone")
		}
	}
}
