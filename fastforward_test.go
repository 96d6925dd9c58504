package fxa

// Fast-forward and trace differential suite: the emulator's
// block-stepping loops (emu.FFFast, the default) must be bit-identical to
// the one-Step-per-instruction reference path (emu.FFStep) on every
// compiled test kernel and every synthetic SPEC proxy — for a
// fast-forward, registers, memory, PC, halt state and instruction count;
// for a detailed run's trace, every record as well. internal/emu has the
// same contract on hand-written corner-case kernels (fast_test.go,
// trace_test.go); this suite runs it over the full workload surface the
// simulator actually ships.

import (
	"context"
	"reflect"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// ffDiffInsts is the per-run budget. Large enough for every proxy to be
// deep in its steady-state loop and for every kernel to cross page
// boundaries and predecode several pages.
const ffDiffInsts = 40_000

// runFFBoth executes prog under both fast-forward modes and compares the
// complete architectural outcome.
func runFFBoth(t *testing.T, name string, prog *asm.Program) {
	t.Helper()
	fast, slow := emu.New(prog), emu.New(prog)
	fast.FF, slow.FF = emu.FFFast, emu.FFStep
	nf, ef := fast.Run(ffDiffInsts)
	ns, es := slow.Run(ffDiffInsts)
	if ef != nil || es != nil {
		t.Fatalf("%s: run errors: fast %v, step %v", name, ef, es)
	}
	if nf != ns {
		t.Fatalf("%s: executed fast %d, step %d", name, nf, ns)
	}
	assertSameArch(t, name, fast, slow)
}

// assertSameArch fails the test unless the block-loop machine fast and
// the reference machine slow are architecturally identical.
func assertSameArch(t *testing.T, name string, fast, slow *emu.Machine) {
	t.Helper()
	if fast.PC != slow.PC || fast.Halt != slow.Halt || fast.InstCount != slow.InstCount {
		t.Fatalf("%s: control state differs: PC %#x/%#x halt %v/%v insts %d/%d",
			name, fast.PC, slow.PC, fast.Halt, slow.Halt, fast.InstCount, slow.InstCount)
	}
	if fast.R != slow.R {
		t.Errorf("%s: integer register file differs", name)
	}
	if fast.F != slow.F {
		t.Errorf("%s: FP register file differs", name)
	}
	if addr, differs := fast.Mem.Diff(slow.Mem); differs {
		t.Errorf("%s: memory differs at %#x: fast %#x, step %#x",
			name, addr, fast.Mem.Load8(addr), slow.Mem.Load8(addr))
	}
}

func TestFastForwardDifferentialKernels(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		t.Run(name, func(t *testing.T) { runFFBoth(t, name, prog) })
	}
}

func TestFastForwardDifferentialProxies(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			runFFBoth(t, w.Name, prog)
		})
	}
}

// runTraceBoth reads ffDiffInsts records of prog through NextBatch (the
// block trace loop, in the timing engines' batch size) and through Next
// (one Step per record), and compares every record and the final
// architectural state.
func runTraceBoth(t *testing.T, name string, prog *asm.Program) {
	t.Helper()
	fast, slow := emu.New(prog), emu.New(prog)
	fast.FF = emu.FFFast
	fs, ss := emu.NewStream(fast, ffDiffInsts), emu.NewStream(slow, ffDiffInsts)
	buf := make([]emu.Record, engine.TraceBatch)
	var seq uint64
	for {
		n := fs.NextBatch(buf)
		for _, got := range buf[:n] {
			want, ok := ss.Next()
			if !ok {
				t.Fatalf("%s: NextBatch record %d past the end of Next's trace", name, seq)
			}
			if got != want {
				t.Fatalf("%s: record %d = %+v, want %+v", name, seq, got, want)
			}
			seq++
		}
		if n < len(buf) {
			break
		}
	}
	if _, ok := ss.Next(); ok {
		t.Fatalf("%s: NextBatch ended after %d records, Next goes on", name, seq)
	}
	if fs.Err() != nil || ss.Err() != nil {
		t.Fatalf("%s: trace errors: batch %v, next %v", name, fs.Err(), ss.Err())
	}
	if seq != ffDiffInsts && !slow.Halt {
		t.Fatalf("%s: %d records before the cap without a halt", name, seq)
	}
	assertSameArch(t, name, fast, slow)
}

func TestTraceDifferentialKernels(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		t.Run(name, func(t *testing.T) { runTraceBoth(t, name, prog) })
	}
}

func TestTraceDifferentialProxies(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			runTraceBoth(t, w.Name, prog)
		})
	}
}

// TestRunWarmModeInvariance: a warmed timing run must produce identical
// results whichever interpreter the machine runs on — FFFast's block
// loops or FFStep's Step, for the warmup fast-forward and for the
// detailed window's trace alike. Each machine carries its own mode.
func TestRunWarmModeInvariance(t *testing.T) {
	w, err := WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	warmRun := func(mode emu.FFMode) Result {
		m := emu.New(prog)
		m.FF = mode
		if _, err := m.Run(30_000); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Spec{Model: HalfFX(), Trace: emu.NewStream(m, m.InstCount+10_000)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, slow := warmRun(emu.FFFast), warmRun(emu.FFStep)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("warmed run differs between fast-forward modes:\nfast: %+v\nstep: %+v", fast, slow)
	}
}

// TestWarmupSkipsInstructions: a cell's warmup runs functionally before
// the stream starts, and the stream then yields exactly maxInsts records.
func TestWarmupSkipsInstructions(t *testing.T) {
	w, err := WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newCellTrace(w, 5_000, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := tr.Next()
	if !ok {
		t.Fatal("empty stream after warmup")
	}
	if first.Seq < 5_000 {
		t.Errorf("first record Seq = %d, want >= 5000 (warmup skipped)", first.Seq)
	}
	n := 1
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Errorf("stream yielded %d records after warmup, want 100", n)
	}
}
