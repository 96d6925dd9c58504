package inorder

import (
	"context"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

func runLittle(t *testing.T, src string) engine.Result {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	golden := emu.New(p)
	want, err := golden.Run(5_000_000)
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	co, err := New(config.Little(), emu.NewStream(emu.New(p), 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed != want {
		t.Fatalf("committed %d, emulator executed %d", res.Counters.Committed, want)
	}
	return res
}

const ilpKernel = `
	li   r10, 3000
loop:	addi r1, r1, 1
	addi r2, r2, 2
	addi r3, r3, 3
	addi r4, r4, 4
	xor  r5, r1, r2
	xor  r6, r3, r4
	addi r10, r10, -1
	bgt  r10, loop
	halt
`

func TestLittleRunsAndIsSlowishButDualIssue(t *testing.T) {
	res := runLittle(t, ilpKernel)
	ipc := res.Counters.IPC()
	// Independent 1-cycle ops: a dual-issue in-order core should approach
	// its fetch/issue width of 2 but never exceed it.
	if ipc < 1.2 || ipc > 2.0 {
		t.Errorf("LITTLE IPC = %.2f, want within (1.2, 2.0]", ipc)
	}
}

func TestLittleStallsOnSerialChain(t *testing.T) {
	res := runLittle(t, `
	li   r9, 2000
loop:	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	`)
	ipc := res.Counters.IPC()
	// The r1 chain serializes 4 of the 6 body instructions.
	if ipc > 1.6 {
		t.Errorf("serial chain IPC = %.2f, too high for in-order", ipc)
	}
	if ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, too low", ipc)
	}
}

func TestLittleLoadUseStalls(t *testing.T) {
	fast := runLittle(t, ilpKernel)
	slow := runLittle(t, `
	li   r9, 2000
	lda  r8, buf
loop:	ld   r1, 0(r8)     ; load-use chain, L1 hit = 2 cycles
	add  r2, r1, r1
	ld   r3, 8(r8)
	add  r4, r3, r3
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 64
	`)
	if slow.Counters.IPC() >= fast.Counters.IPC() {
		t.Errorf("load-use loop IPC %.2f should be below ALU loop IPC %.2f",
			slow.Counters.IPC(), fast.Counters.IPC())
	}
}

func TestLittleMispredictPenalty(t *testing.T) {
	mk := func(fill string) string {
		return `
	li   r1, 88172645
	li   r9, 4096
	lda  r8, table
init:	slli r2, r1, 13
	xor  r1, r1, r2
	srli r2, r1, 7
	xor  r1, r1, r2
	slli r2, r1, 17
	xor  r1, r1, r2
	srli r4, r1, 13
	andi r4, r4, ` + fill + `
	st   r4, 0(r8)
	addi r8, r8, 8
	addi r9, r9, -1
	bgt  r9, init
	li   r9, 4096
	lda  r8, table
loop:	ld   r4, 0(r8)
	addi r8, r8, 8
	addi r20, r20, 1
	addi r21, r21, 2
	beq  r4, skip
skip:	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x40000
table:	.space 32768
`
	}
	rand := runLittle(t, mk("1"))
	pred := runLittle(t, mk("0"))
	extra := rand.Counters.BranchMispredicts - pred.Counters.BranchMispredicts
	if extra < 1000 {
		t.Fatalf("expected many extra mispredicts, got %d", extra)
	}
	penalty := float64(rand.Counters.Cycles-pred.Counters.Cycles) / float64(extra)
	// Table I: 8 cycles for LITTLE.
	if penalty < 6 || penalty > 11 {
		t.Errorf("LITTLE measured penalty = %.1f cycles/mispredict, want ~8", penalty)
	}
}

func TestLittleRejectsOoOModel(t *testing.T) {
	for _, m := range []config.Model{config.Little(), config.Dual(), config.DualSI()} {
		if _, err := New(m, nil); err != nil {
			t.Errorf("inorder.New rejected in-order model %s: %v", m.Name, err)
		}
	}
	if _, err := New(config.Big(), nil); err == nil {
		t.Error("inorder.New must reject out-of-order models")
	}
}

func TestLittleFUCounts(t *testing.T) {
	// One mem FU: back-to-back independent loads cannot dual-issue.
	res := runLittle(t, `
	li   r9, 2000
	lda  r8, buf
loop:	ld   r1, 0(r8)
	ld   r2, 8(r8)
	ld   r3, 16(r8)
	ld   r4, 24(r8)
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 64
	`)
	// 4 loads on 1 port -> at least 4 cycles per iteration of 6 insts.
	if ipc := res.Counters.IPC(); ipc > 1.5 {
		t.Errorf("IPC %.2f too high for single memory port", ipc)
	}
}
