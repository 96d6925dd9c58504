package inorder

import (
	"context"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// run simulates src to completion on m and returns the core (for
// diagnostics) and its result.
func run(t *testing.T, m config.Model, src string) (*Core, engine.Result) {
	t.Helper()
	prog := asm.MustAssemble(src)
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return co, res
}

// mixedSrc interleaves an integer chain with an independent FP chain, so
// every integer instruction has an FP partner available for the second
// slot.
const mixedSrc = `
	li r21, 2000
	li r1, 1
	li r29, 0x3a000
	ldf f1, 0(r29)
	ldf f2, 8(r29)
loop:	add r2, r2, r1
	fadd f3, f1, f2
	add r4, r4, r1
	fadd f5, f1, f2
	addi r21, r21, -1
	bgt r21, loop
	halt
	.org 0x3a000
	.double 1.5
	.double 2.25
`

// intSrc is a pure integer chain: the pairing rule never fires, so DUAL
// behaves exactly like its single-issue baseline.
const intSrc = `
	li r21, 2000
	li r1, 1
loop:	add r2, r2, r1
	add r3, r3, r1
	add r4, r4, r1
	add r5, r5, r1
	addi r21, r21, -1
	bgt r21, loop
	halt
`

// TestPairingSpeedsUpMixedCode pins the policy's reason to exist: on
// interleaved INT/FP code the dual-issue core must beat its single-issue
// baseline, and the win must come from paired cycles.
func TestPairingSpeedsUpMixedCode(t *testing.T) {
	co, dual := run(t, config.Dual(), mixedSrc)
	_, si := run(t, config.DualSI(), mixedSrc)
	if dual.Counters.Committed != si.Counters.Committed {
		t.Fatalf("committed drift: DUAL %d, DUAL-SI %d", dual.Counters.Committed, si.Counters.Committed)
	}
	if dual.Counters.Cycles >= si.Counters.Cycles {
		t.Errorf("mixed INT/FP code: DUAL took %d cycles, single-issue %d — pairing bought nothing",
			dual.Counters.Cycles, si.Counters.Cycles)
	}
	if p := co.Pairing(); p.PairedCycles == 0 {
		t.Errorf("no paired cycles on interleaved INT/FP code: %+v", p)
	}
}

// TestPairingRejectsSameDomain pins the constraint side: a pure integer
// stream cannot use the second slot, DomainBlocked counts the rejections,
// and the cycle count matches the single-issue baseline exactly.
func TestPairingRejectsSameDomain(t *testing.T) {
	co, dual := run(t, config.Dual(), intSrc)
	_, si := run(t, config.DualSI(), intSrc)
	if dual.Counters.Cycles != si.Counters.Cycles {
		t.Errorf("pure integer code: DUAL %d cycles, DUAL-SI %d — second slot must be unusable",
			dual.Counters.Cycles, si.Counters.Cycles)
	}
	p := co.Pairing()
	if p.PairedCycles != 0 {
		t.Errorf("paired %d cycles on a single-domain stream", p.PairedCycles)
	}
	if p.DomainBlocked == 0 {
		t.Error("no DomainBlocked rejections recorded on a single-domain stream")
	}
}

// TestLittlePairsAnyDomain pins LITTLE's slot-1 rule: independent integer
// ops fill both slots, and no pairing is ever refused on domain.
func TestLittlePairsAnyDomain(t *testing.T) {
	co, _ := run(t, config.Little(), ilpKernel)
	p := co.Pairing()
	if p.PairedCycles == 0 {
		t.Errorf("LITTLE never paired on independent integer code: %+v", p)
	}
	if p.DomainBlocked != 0 {
		t.Errorf("LITTLE refused %d pairings on domain", p.DomainBlocked)
	}
}

// TestKindChecked pins construction: Validate bounds the issue width at
// the pairing policy's two slots (TestLittleRejectsOoOModel covers the
// kinds New accepts).
func TestKindChecked(t *testing.T) {
	m := config.Dual()
	m.IssueWidth = 3
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted IssueWidth 3 on a dual-issue core")
	}
}

// TestSkipStatsAdvance sanity-checks the shared skipper wiring: a
// memory-bound stream with a single MSHR must actually skip idle spans.
func TestSkipStatsAdvance(t *testing.T) {
	src := `
	li r21, 200
	li r1, 0x100000
	li r2, 4096
loop:	ld r3, 0(r1)
	add r1, r1, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	m := config.Dual()
	m.MSHRs = 1
	prog := asm.MustAssemble(src)
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	co.SetIdleSkip(true)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cycles, spans := co.SkipStats(); cycles == 0 || spans == 0 {
		t.Errorf("no idle cycles skipped on a miss-serialized stream (cycles=%d spans=%d)", cycles, spans)
	}
}
