package core

import (
	"context"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// runModel assembles src, executes it functionally to find the committed
// instruction count, then runs the timing model and checks the model
// committed exactly the architectural instruction stream.
func runModel(t *testing.T, m config.Model, src string) engine.Result {
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

	co, err := New(m, emu.NewStream(emu.New(p), 0))
	if err != nil {
		t.Fatalf("new core: %v", err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Counters.Committed != want {
		t.Fatalf("%s committed %d instructions, emulator executed %d", m.Name, res.Counters.Committed, want)
	}
	if res.Counters.Cycles == 0 {
		t.Fatalf("%s: zero cycles", m.Name)
	}
	return res
}

const sumLoop = `
	li   r1, 2000
	clr  r2
loop:	add  r2, r2, r1
	addi r1, r1, -1
	bgt  r1, loop
	halt
`

// ilpKernel has four independent dependence chains, plenty of ILP.
const ilpKernel = `
	li   r10, 3000
	clr  r1
	clr  r2
	clr  r3
	clr  r4
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

func TestAllModelsRunSumLoop(t *testing.T) {
	for _, m := range []config.Model{config.Big(), config.Half(), config.BigFX(), config.HalfFX()} {
		res := runModel(t, m, sumLoop)
		ipc := res.Counters.IPC()
		if ipc < 0.3 || ipc > 4 {
			t.Errorf("%s: implausible IPC %.2f", m.Name, ipc)
		}
	}
}

func TestFXExecutesMostOfSumLoopInIXU(t *testing.T) {
	// A realistic loop body (several fetch groups per iteration) of
	// 1-cycle INT ops: the IXU should capture the large majority. Note:
	// ultra-tight bodies (one fetch group per iteration) have a
	// cross-iteration dependence distance of one cycle, which neither
	// the IXU bypass nor the front-end PRF read can cover — those fall
	// back to the OXU (see TestTightLoopFallsBackToOXU).
	res := runModel(t, config.HalfFX(), ilpKernel)
	rate := res.Counters.IXURate()
	if rate < 0.5 {
		t.Errorf("IXU rate = %.2f, want > 0.5", rate)
	}
	if res.Counters.IXUExec+res.Counters.OXUExec != res.Counters.Committed {
		t.Errorf("IXU(%d) + OXU(%d) != committed(%d)",
			res.Counters.IXUExec, res.Counters.OXUExec, res.Counters.Committed)
	}
}

func TestIQPressureOrdering(t *testing.T) {
	big := runModel(t, config.Big(), ilpKernel)
	half := runModel(t, config.Half(), ilpKernel)
	halfFX := runModel(t, config.HalfFX(), ilpKernel)
	if big.Counters.IPC() < half.Counters.IPC() {
		t.Errorf("BIG IPC (%.2f) should be >= HALF IPC (%.2f)", big.Counters.IPC(), half.Counters.IPC())
	}
	if halfFX.Counters.IPC() < half.Counters.IPC() {
		t.Errorf("HALF+FX IPC (%.2f) should be >= HALF IPC (%.2f)", halfFX.Counters.IPC(), half.Counters.IPC())
	}
}

// TestIXUDependentChainExample reproduces the paper's Figure 3/4: a chain
// of serially dependent 1-cycle instructions is executed entirely in the
// IXU because each stage's bypass feeds the next.
func TestIXUDependentChain(t *testing.T) {
	res := runModel(t, config.HalfFX(), `
	li   r9, 1000
	li   r1, 1
loop:	add  r2, r1, r1    ; I0
	add  r3, r2, r1    ; I1 depends on I0
	add  r4, r3, r1    ; I2 depends on I1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	`)
	if rate := res.Counters.IXURate(); rate < 0.6 {
		t.Errorf("dependent-chain IXU rate = %.2f, want > 0.6", rate)
	}
}

func TestFPDoesNotExecuteInIXU(t *testing.T) {
	res := runModel(t, config.HalfFX(), `
	li   r9, 500
	lda  r8, d
	ldf  f1, 0(r8)
	ldf  f2, 8(r8)
loop:	fadd f3, f1, f2
	fmul f4, f3, f1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x10000
d:	.double 1.5, 2.5
	`)
	c := &res.Counters
	// fadd/fmul must all be executed in the OXU; loop overhead in IXU.
	if c.IXURate() > 0.70 || c.IXURate() < 0.3 {
		t.Errorf("FP loop IXU rate = %.2f, expected mid-range", c.IXURate())
	}
	if c.OXUExec < 1000 {
		t.Errorf("OXU executed %d, want >= 1000 FP ops", c.OXUExec)
	}
}

// branchTableLoop builds a loop whose conditional branch tests a value
// loaded from a table. With random=true the table holds an unlearnable
// xorshift bit pattern; with random=false it holds all zeros (perfectly
// predictable). Both variants commit the same instruction count (the
// branch skips nothing), so the cycle difference divided by the mispredict
// count measures the misprediction penalty.
func branchTableLoop(random bool) string {
	fill := "0"
	if random {
		fill = "1"
	}
	return `
	; init: fill table with random bits (or zeros)
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

	; measured loop: the condition for this iteration was loaded by the
	; previous one (software pipelining), so the compare-and-branch can
	; resolve in the front end.
	li   r9, 4096
	lda  r8, table
	ld   r4, 0(r8)
loop:	cmpeqi r14, r4, 1
	addi r8, r8, 8
	ld   r4, 0(r8)
	addi r20, r20, 1
	addi r21, r21, 2
	addi r22, r22, 3
	bne  r14, skip
skip:	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x40000
table:	.space 32768
`
}

func TestBranchMispredictPenaltyBig(t *testing.T) {
	rand := runModel(t, config.Big(), branchTableLoop(true))
	pred := runModel(t, config.Big(), branchTableLoop(false))
	if rand.Counters.Committed != pred.Counters.Committed {
		t.Fatalf("variants commit different counts: %d vs %d", rand.Counters.Committed, pred.Counters.Committed)
	}
	extra := rand.Counters.BranchMispredicts - pred.Counters.BranchMispredicts
	if extra < 1000 {
		t.Fatalf("expected many extra mispredicts, got %d", extra)
	}
	penalty := float64(rand.Counters.Cycles-pred.Counters.Cycles) / float64(extra)
	// Table I: 11 cycles for BIG.
	if penalty < 8 || penalty > 14 {
		t.Errorf("BIG measured mispredict penalty = %.1f cycles/mispredict, want ~11", penalty)
	}
}

// TestTightLoopFallsBackToOXU documents the model's behaviour on a
// one-fetch-group loop: the cross-iteration dependence distance is one
// cycle, too short for the IXU bypass or the front-end PRF read, so the
// chain executes in the OXU (the omitted OXU-to-IXU bypass,
// Section III-A1).
func TestTightLoopFallsBackToOXU(t *testing.T) {
	res := runModel(t, config.HalfFX(), sumLoop)
	if res.Counters.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Counters.IPC() < 0.5 {
		t.Errorf("tight loop IPC %.2f too low", res.Counters.IPC())
	}
}

func TestIXUResolvesBranchesEarly(t *testing.T) {
	res := runModel(t, config.HalfFX(), branchTableLoop(true))
	c := &res.Counters
	if c.MispredResolvedIXU == 0 {
		t.Fatal("no mispredicts resolved in the IXU")
	}
	// The condition comes from a load a couple of groups ahead of the
	// branch, so the IXU resolves most mispredicts (Section IV-B2).
	if c.MispredResolvedIXU < c.MispredResolvedOXU {
		t.Errorf("IXU resolved %d < OXU resolved %d; expected mostly-IXU resolution",
			c.MispredResolvedIXU, c.MispredResolvedOXU)
	}
	// Differential penalty must come out below BIG's (the point of
	// Section IV-B2).
	pred := runModel(t, config.HalfFX(), branchTableLoop(false))
	extra := c.BranchMispredicts - pred.Counters.BranchMispredicts
	fxPen := float64(c.Cycles-pred.Counters.Cycles) / float64(extra)
	randBig := runModel(t, config.Big(), branchTableLoop(true))
	predBig := runModel(t, config.Big(), branchTableLoop(false))
	bigPen := float64(randBig.Counters.Cycles-predBig.Counters.Cycles) /
		float64(randBig.Counters.BranchMispredicts-predBig.Counters.BranchMispredicts)
	if fxPen >= bigPen {
		t.Errorf("HALF+FX penalty %.1f should be below BIG penalty %.1f (IXU early resolution)", fxPen, bigPen)
	}
}

func TestMemoryOrderViolationReplay(t *testing.T) {
	// The store's address depends on a long divide; the younger load is
	// ready immediately and will issue first, causing a violation the
	// first time; the store-set predictor then serializes later pairs.
	src := `
	li   r9, 300
	lda  r8, buf
	li   r7, 640
	li   r6, 10
loop:	div  r1, r7, r6    ; slow: 64
	add  r2, r8, r1    ; store address = buf+64
	li   r3, 99
	st   r3, 0(r2)     ; store to buf+64
	ld   r4, 64(r8)    ; load from buf+64  (conflicts!)
	add  r5, r4, r4
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 256
	`
	for _, m := range []config.Model{config.Big(), config.HalfFX()} {
		res := runModel(t, m, src)
		c := &res.Counters
		if c.MemViolations == 0 {
			t.Errorf("%s: expected at least one memory-order violation", m.Name)
		}
		// The store-set predictor must learn: violations far fewer than
		// iterations.
		if c.MemViolations > 100 {
			t.Errorf("%s: %d violations in 300 iterations; store sets not learning", m.Name, c.MemViolations)
		}
		if c.Replays != c.MemViolations {
			t.Errorf("%s: replays (%d) != violations (%d)", m.Name, c.Replays, c.MemViolations)
		}
	}
}

func TestStoreForwarding(t *testing.T) {
	res := runModel(t, config.Big(), `
	li   r9, 500
	lda  r8, buf
loop:	st   r9, 0(r8)
	ld   r1, 0(r8)
	add  r2, r1, r1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 64
	`)
	if res.Counters.StoreForwarded < 400 {
		t.Errorf("store forwarded %d times, want ~500", res.Counters.StoreForwarded)
	}
}

func TestLSQOmissions(t *testing.T) {
	// Simple streaming loop: loads and stores execute in the IXU, with
	// no in-flight older stores at load-execute time most iterations.
	res := runModel(t, config.HalfFX(), `
	li   r9, 500
	lda  r8, buf
loop:	ld   r1, 0(r8)
	addi r1, r1, 1
	st   r1, 512(r8)
	addi r8, r8, 8
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 8192
	`)
	c := &res.Counters
	if c.IXUStoreExec == 0 || c.IXULoadExec == 0 {
		t.Fatalf("IXU executed %d loads / %d stores; expected both > 0", c.IXULoadExec, c.IXUStoreExec)
	}
	if c.LQSearchOmitted == 0 {
		t.Error("no LQ searches omitted despite IXU store execution")
	}
	if c.LQWriteOmitted == 0 {
		t.Error("no LQ writes omitted despite in-order load execution")
	}
	if c.LQSearchOmitted != c.IXUStoreExec {
		t.Errorf("LQ search omissions (%d) != IXU store executions (%d)", c.LQSearchOmitted, c.IXUStoreExec)
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	// A loop body much larger than L1I forces instruction misses.
	var b strings.Builder
	b.WriteString("\tli r9, 30\nloop:\n")
	for i := 0; i < 20000; i++ {
		b.WriteString("\taddi r1, r1, 1\n")
	}
	b.WriteString("\taddi r9, r9, -1\n\tbgt r9, loop\n\thalt\n")
	res := runModel(t, config.Big(), b.String())
	if res.L1I.Misses() < 1000 {
		t.Errorf("L1I misses = %d, expected many", res.L1I.Misses())
	}
	if res.Counters.IPC() > 2.5 {
		t.Errorf("IPC %.2f implausibly high under I-cache misses", res.Counters.IPC())
	}
}

func TestDCacheMissLatencyHurts(t *testing.T) {
	// Pointer-chase across a footprint larger than L2.
	fast := runModel(t, config.Big(), sumLoop)
	slow := runModel(t, config.Big(), `
	li   r9, 3000
	lda  r8, buf
	clr  r2
loop:	ld   r1, 0(r8)
	addi r8, r8, 4096   ; new line and new page every access
	andi r3, r9, 511
	bne  r3, nowrap
	lda  r8, buf
nowrap:	add  r2, r2, r1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x100000
buf:	.space 8
	`)
	if slow.Counters.IPC() >= fast.Counters.IPC() {
		t.Errorf("cache-missing loop IPC %.2f should be below ALU loop IPC %.2f",
			slow.Counters.IPC(), fast.Counters.IPC())
	}
	if slow.L1D.MissRate() < 0.5 {
		t.Errorf("L1D miss rate %.2f, expected streaming misses", slow.L1D.MissRate())
	}
}

func TestScoreboardCategoryA(t *testing.T) {
	// Instructions depending only on long-dead registers are ready at
	// entry (category (a), Section IV-A).
	res := runModel(t, config.HalfFX(), `
	li   r1, 7
	li   r2, 9
	li   r9, 1000
loop:	add  r3, r1, r2    ; operands committed long ago -> ready at entry
	add  r4, r1, r2
	addi r9, r9, -1
	bgt  r9, loop
	halt
	`)
	if res.Counters.IXUReadyAtEntry == 0 {
		t.Error("expected category (a) instructions")
	}
}

func TestRejectsInOrderModel(t *testing.T) {
	if _, err := New(config.Little(), nil); err == nil {
		t.Error("core.New must reject in-order models")
	}
}

func TestResultBookkeeping(t *testing.T) {
	res := runModel(t, config.HalfFX(), sumLoop)
	c := &res.Counters
	if c.IQDispatch != c.OXUExec {
		t.Errorf("IQ dispatches (%d) != OXU executions (%d)", c.IQDispatch, c.OXUExec)
	}
	if c.IQIssue < c.OXUExec {
		t.Errorf("IQ issues (%d) < OXU executions (%d)", c.IQIssue, c.OXUExec)
	}
	if c.FetchedInsts < c.Committed {
		t.Errorf("fetched (%d) < committed (%d)", c.FetchedInsts, c.Committed)
	}
}

// TestMSHRBoundsMLP checks that the miss-status registers throttle
// memory-level parallelism: many independent missing loads go much slower
// with 1 MSHR than with 16.
func TestMSHRBoundsMLP(t *testing.T) {
	src := `
	li   r9, 500
	lda  r8, buf
loop:	ld   r1, 0(r8)
	ld   r2, 4096(r8)
	addi r10, r8, 8000
	ld   r3, 192(r10)
	ld   r4, 4288(r10)
	addi r8, r8, 64
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x100000
buf:	.space 8
	`
	run := func(mshrs int) float64 {
		m := config.Big()
		m.MSHRs = mshrs
		res := runModel(t, m, src)
		return res.Counters.IPC()
	}
	one := run(1)
	many := run(16)
	if many < one*1.5 {
		t.Errorf("16 MSHRs (IPC %.3f) should be much faster than 1 (IPC %.3f)", many, one)
	}
	unlimited := run(0)
	if unlimited < many {
		t.Errorf("unlimited MSHRs (IPC %.3f) must be at least 16-MSHR speed (%.3f)", unlimited, many)
	}
}

// TestRENOMoveElimination checks the RENO extension (Section VII-C): with
// it enabled, register moves and zero idioms vanish from both execution
// units, and move-heavy code speeds up.
func TestRENOMoveElimination(t *testing.T) {
	src := `
	li   r9, 2000
	li   r1, 7
loop:	mov  r2, r1        ; eliminable
	add  r3, r2, r1
	mov  r4, r3        ; eliminable
	clr  r5            ; eliminable zero idiom
	add  r6, r4, r3
	addi r9, r9, -1
	bgt  r9, loop
	halt
	`
	base := config.HalfFX()
	reno := config.HalfFX()
	reno.RENO = true
	plain := runModel(t, base, src)
	opt := runModel(t, reno, src)
	c := &opt.Counters
	if c.RenoEliminated < 5000 {
		t.Fatalf("eliminated %d moves, want ~6000", c.RenoEliminated)
	}
	if c.IXUExec+c.OXUExec+c.RenoEliminated != c.Committed {
		t.Errorf("IXU(%d)+OXU(%d)+RENO(%d) != committed(%d)",
			c.IXUExec, c.OXUExec, c.RenoEliminated, c.Committed)
	}
	if opt.Counters.IPC() < plain.Counters.IPC() {
		t.Errorf("RENO IPC %.3f must not be below baseline %.3f",
			opt.Counters.IPC(), plain.Counters.IPC())
	}
	if plain.Counters.RenoEliminated != 0 {
		t.Error("baseline must not eliminate anything")
	}
}

// TestRENOCorrectUnderReplay forces memory-order violations with RENO
// enabled: the RAT rebuild after a flush must restore move aliases.
func TestRENOCorrectUnderReplay(t *testing.T) {
	src := `
	li   r9, 300
	lda  r8, buf
	li   r7, 640
	li   r6, 10
loop:	div  r1, r7, r6
	mov  r2, r8        ; eliminable, rebuilt on every replay
	add  r2, r2, r1
	li   r3, 99
	st   r3, 0(r2)
	ld   r4, 64(r8)
	mov  r5, r4        ; eliminable
	add  r5, r5, r4
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 256
	`
	m := config.BigFX()
	m.RENO = true
	res := runModel(t, m, src)
	if res.Counters.MemViolations == 0 {
		t.Skip("no violations; replay path not exercised")
	}
	if res.Counters.RenoEliminated == 0 {
		t.Error("expected eliminated moves")
	}
}
