package emu

import (
	"fmt"
	"math"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/isa"
)

// diffPrograms are small assembly kernels chosen to exercise every control
// shape the fast loop handles specially: straight-line ALU runs, taken and
// not-taken branches (forward and backward), cross-page jumps and fall-
// through, memory in all widths, FP, the zero register, and halt.
var diffPrograms = map[string]string{
	"alu-loop": `
		li   r1, 5000
		clr  r2
	loop:	add  r2, r2, r1
		xor  r3, r2, r1
		sll  r4, r1, r3
		popcnt r5, r2
		addi r1, r1, -1
		bgt  r1, loop
		halt
	`,
	"mem-mixed": `
		lda  r1, buf
		li   r2, 400
		clr  r3
	loop:	st   r3, 0(r1)
		stb  r3, 8(r1)
		sth  r3, 10(r1)
		stw  r3, 12(r1)
		ld   r4, 0(r1)
		ldbu r5, 8(r1)
		ldhs r6, 10(r1)
		ldws r7, 12(r1)
		add  r3, r3, r4
		addi r3, r3, 13
		addi r1, r1, 16
		addi r2, r2, -1
		bgt  r2, loop
		halt
		.org 0x20000
	buf:	.space 8192
	`,
	"fp-kernel": `
		lda  r1, d
		ldf  f1, 0(r1)
		ldf  f2, 8(r1)
		li   r2, 300
	loop:	fadd f3, f1, f2
		fmul f4, f3, f1
		fdiv f5, f4, f2
		fsqrt f6, f4
		fneg f7, f6
		fcmplt r3, f5, f4
		cvtfi r4, f4
		cvtif f8, r4
		stf  f8, 16(r1)
		addi r2, r2, -1
		bgt  r2, loop
		halt
		.org 0x20000
	d:	.double 1.5, 2.25, 0.0
	`,
	"branch-dance": `
		li   r1, 2000
		clr  r2
	loop:	andi r3, r1, 3
		beq  r3, a
		cmpeqi r4, r3, 1
		bne  r4, b
		br   c
	a:	addi r2, r2, 7
		br   next
	b:	addi r2, r2, 11
		br   next
	c:	addi r2, r2, 13
	next:	addi r1, r1, -1
		bgt  r1, loop
		halt
	`,
	"call-chain": `
		li   r5, 800
		clr  r6
	loop:	lda  r1, fn
		jmp  r2, (r1)
	back:	addi r5, r5, -1
		bgt  r5, loop
		halt
	fn:	addi r6, r6, 3
		jmp  r31, (r2)
	`,
	// Crosses a 4 KiB code-page boundary by straight-line fall-through
	// and by a backward branch spanning the boundary.
	"page-cross": `
		li   r1, 60
		clr  r2
	loop:	addi r2, r2, 1
		.space 8160
		addi r2, r2, 100
		addi r1, r1, -1
		bgt  r1, loop
		halt
	`,
	"zero-reg": `
		li   r1, 1000
	loop:	add  r31, r1, r1
		addi r31, r31, 5
		add  r2, r31, r1
		addi r1, r1, -1
		bgt  r1, loop
		halt
	`,
}

// assertSameState fails the test unless the two machines are
// architecturally identical.
func assertSameState(t *testing.T, name string, fast, slow *Machine) {
	t.Helper()
	if fast.InstCount != slow.InstCount {
		t.Errorf("%s: InstCount fast %d, step %d", name, fast.InstCount, slow.InstCount)
	}
	if fast.PC != slow.PC {
		t.Errorf("%s: PC fast %#x, step %#x", name, fast.PC, slow.PC)
	}
	if fast.Halt != slow.Halt {
		t.Errorf("%s: Halt fast %v, step %v", name, fast.Halt, slow.Halt)
	}
	if fast.R != slow.R {
		for i := range fast.R {
			if fast.R[i] != slow.R[i] {
				t.Errorf("%s: r%d fast %#x, step %#x", name, i, fast.R[i], slow.R[i])
			}
		}
	}
	for i := range fast.F {
		// Bitwise, so a NaN compares equal to itself and -0 differs
		// from +0.
		if math.Float64bits(fast.F[i]) != math.Float64bits(slow.F[i]) {
			t.Errorf("%s: f%d fast %v, step %v", name, i, fast.F[i], slow.F[i])
		}
	}
	if addr, differs := fast.Mem.Diff(slow.Mem); differs {
		t.Errorf("%s: memory differs at %#x: fast %#x, step %#x",
			name, addr, fast.Mem.Load8(addr), slow.Mem.Load8(addr))
	}
}

// runBoth executes src under FFFast and FFStep for budget instructions and
// returns both machines after asserting error parity.
func runBoth(t *testing.T, name, src string, budget uint64) (fast, slow *Machine) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	fast, slow = New(p), New(p)
	fast.FF, slow.FF = FFFast, FFStep
	nf, ef := fast.Run(budget)
	ns, es := slow.Run(budget)
	if (ef == nil) != (es == nil) || (ef != nil && ef.Error() != es.Error()) {
		t.Fatalf("%s: error divergence: fast %v, step %v", name, ef, es)
	}
	if nf != ns {
		t.Errorf("%s: executed fast %d, step %d", name, nf, ns)
	}
	return fast, slow
}

// TestRunFastMatchesStep is the core fidelity contract: the block-stepping
// fast loop and the one-Step-per-instruction reference path must be
// bit-identical in registers, memory, PC, halt state and instruction
// count on every differential kernel.
func TestRunFastMatchesStep(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			fast, slow := runBoth(t, name, src, 1_000_000)
			if !slow.Halt {
				t.Fatalf("%s did not halt; differential run is truncated", name)
			}
			assertSameState(t, name, fast, slow)
		})
	}
}

// TestRunFastChunkedMatchesOneShot re-enters the fast loop at arbitrary
// points: executing in many small Run calls (forcing PC materialization
// and page re-resolution at every boundary) must land in exactly the same
// state as one large call.
func TestRunFastChunkedMatchesOneShot(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			p := asm.MustAssemble(src)
			one, chunked := New(p), New(p)
			if _, err := one.Run(50_000); err != nil {
				t.Fatal(err)
			}
			sizes := []uint64{1, 2, 3, 5, 7, 11, 13, 64, 1000}
			for i := 0; chunked.InstCount < one.InstCount; i++ {
				want := sizes[i%len(sizes)]
				if rem := one.InstCount - chunked.InstCount; want > rem {
					want = rem
				}
				n, err := chunked.Run(want)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatalf("no progress at inst %d", chunked.InstCount)
				}
			}
			assertSameState(t, name, one, chunked)
		})
	}
}

// TestRunFastSelfModifyingCode patches an instruction in an
// already-predecoded, already-executed page and re-executes it: the store
// must invalidate the predecode table mid-run (via the code-write hook and
// predGen), and the fast loop must observe the new instruction exactly
// like the reference path does.
func TestRunFastSelfModifyingCode(t *testing.T) {
	fast, slow := runBoth(t, "smc", smcSource(t), 1_000_000)
	if !slow.Halt {
		t.Fatal("smc kernel did not halt")
	}
	assertSameState(t, "smc", fast, slow)
	// First pass executes the original (111), second the patch (222): any
	// stale predecoded instruction shows up as 222 or 444 instead.
	if fast.R[6] != 333 {
		t.Errorf("accumulator = %d, want 333 (111 original + 222 patched)", fast.R[6])
	}
}

// smcSource is a kernel that executes an instruction, overwrites it in
// place with a store into its own (already predecoded) page, and
// executes it again; r6 ends at 333 when the patch is observed.
func smcSource(t *testing.T) string {
	t.Helper()
	patched, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 5, Ra: isa.ZeroReg, Imm: 222})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`
		lda  r1, target
		lda  r2, word
		ldwu r3, 0(r2)
		clr  r4             ; pass counter
		clr  r6             ; accumulator
	target:	addi r5, r31, 111   ; patched to "addi r5, r31, 222"
		add  r6, r6, r5
		addi r4, r4, 1
		cmplti r7, r4, 2
		beq  r7, done
		stw  r3, 0(r1)      ; overwrite the instruction at target
		br   target
	done:	halt
		.org 0x20000
	word:	.quad %d
	`, patched)
}

// TestCloneKeepsOldCodeAfterParentPatch pins the COW/SMC interaction: a
// clone taken before the parent patches its code must keep executing the
// old instructions (its copy-on-write memory still holds the old bytes),
// while the parent sees the patch.
func TestCloneKeepsOldCodeAfterParentPatch(t *testing.T) {
	patched, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 5, Ra: isa.ZeroReg, Imm: 222})
	if err != nil {
		t.Fatal(err)
	}
	src := `
		lda  r1, target
		br   target
	target:	addi r5, r31, 111
		halt
	`
	p := asm.MustAssemble(src)
	parent := New(p)
	// Execute to completion once so the code page is predecoded and hot.
	if _, err := parent.Run(100); err != nil {
		t.Fatal(err)
	}
	if parent.R[5] != 111 {
		t.Fatalf("first run r5 = %d, want 111", parent.R[5])
	}
	// Rewind both machines to the entry and snapshot.
	parent.PC, parent.Halt = p.Entry, false
	clone := parent.Clone()
	// Parent patches its own code; the clone's memory must not change.
	parent.Mem.Write32(parent.R[1], patched)
	if _, err := parent.Run(100); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Run(100); err != nil {
		t.Fatal(err)
	}
	if parent.R[5] != 222 {
		t.Errorf("parent r5 = %d, want 222 (patched)", parent.R[5])
	}
	if clone.R[5] != 111 {
		t.Errorf("clone r5 = %d, want 111 (pre-patch snapshot)", clone.R[5])
	}
}

// TestRunFastErrorParity: an undecodable word must surface the identical
// error, at the identical instruction count, in both modes.
func TestRunFastErrorParity(t *testing.T) {
	src := `
		li   r1, 3
		addi r1, r1, 4
		nop
		halt
	`
	p := asm.MustAssemble(src)
	// Find an undecodable 32-bit word.
	bad := uint32(0xffffffff)
	for {
		if _, err := isa.Decode(bad); err != nil {
			break
		}
		bad--
	}
	fast, slow := New(p), New(p)
	fast.FF, slow.FF = FFFast, FFStep
	// li expands to ldih+addi, so the nop (to be corrupted) is slot 3.
	badPC := p.Entry + 3*4
	fast.Mem.Write32(badPC, bad)
	slow.Mem.Write32(badPC, bad)
	nf, ef := fast.Run(100)
	ns, es := slow.Run(100)
	if ef == nil || es == nil {
		t.Fatalf("expected decode errors, got fast %v, step %v", ef, es)
	}
	if ef.Error() != es.Error() {
		t.Errorf("error divergence:\nfast: %v\nstep: %v", ef, es)
	}
	if nf != 3 || ns != 3 {
		t.Errorf("executed fast %d, step %d, want 3 before the bad word", nf, ns)
	}
	assertSameState(t, "error-parity", fast, slow)
}

// TestRunFastUnalignedPC: an unaligned PC takes the per-instruction
// reference fallback; both modes must agree on whatever semantics that
// produces.
func TestRunFastUnalignedPC(t *testing.T) {
	src := `
		li   r1, 3
		halt
	`
	p := asm.MustAssemble(src)
	fast, slow := New(p), New(p)
	fast.FF, slow.FF = FFFast, FFStep
	fast.PC += 2
	slow.PC += 2
	nf, ef := fast.Run(10)
	ns, es := slow.Run(10)
	if (ef == nil) != (es == nil) || (ef != nil && es != nil && ef.Error() != es.Error()) {
		t.Fatalf("error divergence: fast %v, step %v", ef, es)
	}
	if nf != ns {
		t.Errorf("executed fast %d, step %d", nf, ns)
	}
	if ef == nil {
		assertSameState(t, "unaligned", fast, slow)
	}
}

// TestRunFastBudgetExact: the budget is an exact bound, and a machine
// stopped mid-block resumes without drift.
func TestRunFastBudgetExact(t *testing.T) {
	src := diffPrograms["alu-loop"]
	p := asm.MustAssemble(src)
	m := New(p)
	for _, step := range []uint64{1, 1, 2, 3, 100, 7} {
		n, err := m.Run(step)
		if err != nil {
			t.Fatal(err)
		}
		if n != step {
			t.Fatalf("Run(%d) executed %d", step, n)
		}
	}
	if m.InstCount != 114 {
		t.Errorf("InstCount = %d, want 114", m.InstCount)
	}
}

// TestStreamNextBatchSurfacesError: an execution error ends the batch
// short and is reported by Err, matching Next's behaviour.
func TestStreamNextBatchSurfacesError(t *testing.T) {
	p := asm.MustAssemble(`
		li   r1, 1
		nop
		halt
	`)
	bad := uint32(0xffffffff)
	for {
		if _, err := isa.Decode(bad); err != nil {
			break
		}
		bad--
	}
	m := New(p)
	// li expands to two instructions (ldih+addi), so the nop is slot 2.
	m.Mem.Write32(p.Entry+2*4, bad)
	s := NewStream(m, 0)
	buf := make([]Record, 16)
	n := s.NextBatch(buf)
	if n != 2 {
		t.Errorf("NextBatch = %d records, want 2 before the bad word", n)
	}
	if s.Err() == nil {
		t.Error("Err() = nil after undecodable word")
	}
	if s.NextBatch(buf) != 0 {
		t.Error("NextBatch after error must return 0")
	}
}

// TestPredecodeInvalidSlots: words that do not decode predecode to
// invalidOp instead of failing the page build — data interleaved into a
// code page must not poison its executable part.
func TestPredecodeInvalidSlots(t *testing.T) {
	var data [pageSize]byte
	good, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 9})
	if err != nil {
		t.Fatal(err)
	}
	bad := uint32(0xffffffff)
	for {
		if _, derr := isa.Decode(bad); derr != nil {
			break
		}
		bad--
	}
	for i := 0; i < slotsPerPage; i++ {
		w := good
		if i%2 == 1 {
			w = bad
		}
		data[i*4] = byte(w)
		data[i*4+1] = byte(w >> 8)
		data[i*4+2] = byte(w >> 16)
		data[i*4+3] = byte(w >> 24)
	}
	pp := buildPredecodePage(&data)
	for i := 0; i < slotsPerPage; i++ {
		wantOp := isa.OpAddi
		if i%2 == 1 {
			wantOp = invalidOp
		}
		if pp.insts[i].Op != wantOp {
			t.Fatalf("slot %d: op %d, want %d", i, pp.insts[i].Op, wantOp)
		}
	}
}

// TestInvalidateCodeDropsTable: a write into a predecoded page must drop
// the machine's table and bump the generation counter.
func TestInvalidateCodeDropsTable(t *testing.T) {
	p := asm.MustAssemble(`
	loop:	addi r1, r1, 1
		br   loop
	`)
	m := New(p)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	key := p.Entry >> pageBits
	if m.pred[key] == nil {
		t.Fatal("code page was not predecoded by execution")
	}
	gen := m.predGen
	m.Mem.Write32(p.Entry, 0) // write into the code page
	if m.pred[key] != nil {
		t.Error("predecode table survived a code write")
	}
	if m.predGen == gen {
		t.Error("predGen not bumped by invalidation")
	}
	// A data-page write must NOT invalidate anything.
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	gen = m.predGen
	m.Mem.Write64(0x900000, 42)
	if m.predGen != gen {
		t.Error("data write bumped predGen")
	}
}
