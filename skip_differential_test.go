package fxa

// Differential proof for idle-cycle skipping (DESIGN.md §8.8): every model
// on every kernel must produce a bit-identical Result — final counters,
// cache and predictor statistics, AND every per-interval delta — whether
// the timing loop iterates idle cycles one by one or jumps over them.
// Memory-bound (single-MSHR) variants stretch idle spans to hundreds of
// cycles so jumps routinely cross Drive's check-slice boundaries, and a
// self-modifying kernel exercises the decode-cache invalidation path under
// both modes.
//
// Skipping is on by default and toggled per engine instance through the
// SetIdleSkip method every timing core exposes, so the two runs of a pair
// share no process-wide state.

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/isa"
)

// runPair runs prog on m twice — idle skipping on, then off — with
// interval collection, and fails the test on any difference in the full
// interval-annotated Result.
func runPair(t *testing.T, m Model, prog *asm.Program, insts uint64) {
	t.Helper()
	const every = 10_000
	run := func(skip bool) Result {
		e, err := engine.New(m, emu.NewStream(emu.New(prog), insts))
		if err != nil {
			t.Fatal(err)
		}
		s, ok := e.(interface{ SetIdleSkip(bool) })
		if !ok {
			t.Fatalf("%s: engine %T has no SetIdleSkip, so skip-off cannot be compared", m.Name, e)
		}
		s.SetIdleSkip(skip)
		res, err := engine.Drive(context.Background(), e, engine.Options{IntervalInsts: every})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(true), run(false)

	if !reflect.DeepEqual(on, off) {
		if !reflect.DeepEqual(on.Counters, off.Counters) {
			t.Errorf("final counters diverge:\nskip-on:  %+v\nskip-off: %+v", on.Counters, off.Counters)
		}
		for i := range off.Intervals {
			if i >= len(on.Intervals) || !reflect.DeepEqual(on.Intervals[i], off.Intervals[i]) {
				t.Errorf("interval %d diverges", i)
				break
			}
		}
		t.Error("skip-on and skip-off results are not bit-identical")
	}
}

// TestSkipDifferentialAllModels proves skip ≡ tick over the full model ×
// kernel matrix.
func TestSkipDifferentialAllModels(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		for _, m := range allKindModels(t) {
			m := m
			t.Run(name+"/"+m.Name, func(t *testing.T) {
				runPair(t, m, prog, diffInsts)
			})
		}
	}
}

// TestSkipDifferentialMemBound proves skip ≡ tick in the regime skipping
// targets: a single MSHR serializes fills, so the window drains and idle
// spans of hundreds of cycles cross Step-slice and interval boundaries.
func TestSkipDifferentialMemBound(t *testing.T) {
	src := `
	li r21, 300
	li r1, 0x100000
	li r2, 4096
loop:	ld r3, 0(r1)
	ld r4, 64(r1)
	add r1, r1, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	prog := asm.MustAssemble(src)
	for _, base := range allKindModels(t) {
		m := base
		m.MSHRs = 1
		t.Run(m.Name+"/mshr1", func(t *testing.T) {
			runPair(t, m, prog, 0)
		})
	}
}

// smcProg builds a kernel that rewrites one instruction word in its own
// loop body on every iteration, alternating between two alternatives, so
// the per-PC decode cache must rebuild the slot (and the code-write
// generation bump must drop stale pages) identically in both modes.
func smcProg(t *testing.T) *asm.Program {
	t.Helper()
	alt1, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 5, Ra: isa.ZeroReg, Imm: 111})
	if err != nil {
		t.Fatal(err)
	}
	alt2, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 5, Ra: isa.ZeroReg, Imm: 222})
	if err != nil {
		t.Fatal(err)
	}
	src := `
	li   r21, 200       ; iterations
	lda  r1, patch
	lda  r2, alts
	clr  r6             ; accumulator
loop:
patch:	addi r5, r31, 111   ; rewritten every iteration
	add  r6, r6, r5
	andi r7, r21, 1     ; pick the alternative by parity
	slli r7, r7, 3
	add  r8, r2, r7
	ldwu r9, 0(r8)
	stw  r9, 0(r1)      ; patch the loop body
	addi r21, r21, -1
	bgt  r21, loop
	halt
	.org 0x20000
alts:	.quad ` + strconv.FormatUint(uint64(alt1), 10) + `
	.quad ` + strconv.FormatUint(uint64(alt2), 10) + `
	`
	return asm.MustAssemble(src)
}

// TestSkipDifferentialSelfModifying proves skip ≡ tick while the program
// rewrites its own code, and that the timing-driven machine still matches
// the pure functional reference.
func TestSkipDifferentialSelfModifying(t *testing.T) {
	prog := smcProg(t)
	ref := emu.New(prog)
	if _, err := ref.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !ref.Halt {
		t.Fatal("SMC kernel did not halt")
	}
	for _, m := range allKindModels(t) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			runPair(t, m, prog, 0)

			// Architectural sanity against the functional reference.
			machine := emu.New(prog)
			res, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(machine, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Committed != ref.InstCount {
				t.Errorf("committed %d, reference executed %d", res.Counters.Committed, ref.InstCount)
			}
			if ref.R != machine.R {
				t.Error("final register file differs from reference")
			}
		})
	}
}
