package emu

import (
	"math"
	"testing"
	"testing/quick"

	"fxa/internal/asm"
	"fxa/internal/isa"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halt {
		t.Fatal("program did not halt")
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
		li   r1, 100
		li   r2, 7
		add  r3, r1, r2     ; 107
		sub  r4, r1, r2     ; 93
		mul  r5, r1, r2     ; 700
		div  r6, r1, r2     ; 14
		and  r7, r1, r2     ; 4
		or   r8, r1, r2     ; 103
		xor  r9, r1, r2     ; 99
		sll  r10, r2, r2    ; 7<<7 = 896
		srl  r11, r1, r2    ; 0
		cmplt r12, r2, r1   ; 1
		cmple r13, r1, r1   ; 1
		cmpeq r14, r1, r2   ; 0
		cmpult r15, r2, r1  ; 1
		halt
	`)
	want := map[int]uint64{3: 107, 4: 93, 5: 700, 6: 14, 7: 4, 8: 103, 9: 99,
		10: 896, 11: 0, 12: 1, 13: 1, 14: 0, 15: 1}
	for r, v := range want {
		if m.R[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.R[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	m := run(t, `
		li   r1, -64
		li   r2, 4
		div  r3, r1, r2     ; -16
		sra  r4, r1, r2     ; -4
		srai r5, r1, 2      ; -16
		cmplt r6, r1, r31   ; 1 (negative < 0)
		div  r7, r1, r31    ; divide by zero -> 0
		halt
	`)
	if int64(m.R[3]) != -16 {
		t.Errorf("div = %d, want -16", int64(m.R[3]))
	}
	if int64(m.R[4]) != -4 {
		t.Errorf("sra = %d, want -4", int64(m.R[4]))
	}
	if int64(m.R[5]) != -16 {
		t.Errorf("srai = %d, want -16", int64(m.R[5]))
	}
	if m.R[6] != 1 {
		t.Errorf("cmplt = %d, want 1", m.R[6])
	}
	if m.R[7] != 0 {
		t.Errorf("div by zero = %d, want 0", m.R[7])
	}
}

func TestZeroRegister(t *testing.T) {
	m := run(t, `
		li   r1, 5
		add  r31, r1, r1    ; write discarded
		add  r2, r31, r31   ; 0
		halt
	`)
	if m.R[31] != 0 {
		t.Errorf("r31 = %d, want 0", m.R[31])
	}
	if m.R[2] != 0 {
		t.Errorf("r2 = %d, want 0", m.R[2])
	}
}

func TestLoop(t *testing.T) {
	// Sum 1..10 = 55.
	m := run(t, `
		li   r1, 10
		clr  r2
	loop:	add  r2, r2, r1
		addi r1, r1, -1
		bgt  r1, loop
		halt
	`)
	if m.R[2] != 55 {
		t.Errorf("sum = %d, want 55", m.R[2])
	}
}

func TestMemory(t *testing.T) {
	m := run(t, `
		lda  r1, buf
		li   r2, 12345
		st   r2, 0(r1)
		st   r2, 8(r1)
		ld   r3, 0(r1)
		ld   r4, 8(r1)
		ld   r5, 16(r1)    ; untouched -> 0
		lda  r6, vals
		ld   r7, 8(r6)     ; -2
		halt
		.org 0x10000
	buf:	.space 64
	vals:	.quad 7, -2
	`)
	if m.R[3] != 12345 || m.R[4] != 12345 {
		t.Errorf("loads = %d, %d, want 12345", m.R[3], m.R[4])
	}
	if m.R[5] != 0 {
		t.Errorf("unwritten load = %d, want 0", m.R[5])
	}
	if int64(m.R[7]) != -2 {
		t.Errorf("data load = %d, want -2", int64(m.R[7]))
	}
}

func TestFloat(t *testing.T) {
	m := run(t, `
		lda  r1, d
		ldf  f1, 0(r1)     ; 2.0
		ldf  f2, 8(r1)     ; 8.0
		fadd f3, f1, f2    ; 10
		fsub f4, f2, f1    ; 6
		fmul f5, f1, f2    ; 16
		fdiv f6, f2, f1    ; 4
		fsqrt f7, f2       ; ~2.828
		fneg f8, f1        ; -2
		fcmplt r2, f1, f2  ; 1
		fcmpeq r3, f1, f1  ; 1
		li   r4, 9
		cvtif f9, r4       ; 9.0
		cvtfi r5, f6       ; 4
		stf  f3, 16(r1)
		ld   r6, 16(r1)
		halt
		.org 0x10000
	d:	.double 2.0, 8.0, 0.0
	`)
	checks := []struct {
		reg  int
		want float64
	}{{3, 10}, {4, 6}, {5, 16}, {6, 4}, {8, -2}, {9, 9}}
	for _, c := range checks {
		if m.F[c.reg] != c.want {
			t.Errorf("f%d = %g, want %g", c.reg, m.F[c.reg], c.want)
		}
	}
	if math.Abs(m.F[7]-math.Sqrt(8)) > 1e-12 {
		t.Errorf("fsqrt = %g", m.F[7])
	}
	if m.R[2] != 1 || m.R[3] != 1 {
		t.Errorf("fp compares = %d, %d, want 1, 1", m.R[2], m.R[3])
	}
	if m.R[5] != 4 {
		t.Errorf("cvtfi = %d, want 4", m.R[5])
	}
	if math.Float64frombits(m.R[6]) != 10 {
		t.Errorf("stf roundtrip = %g, want 10", math.Float64frombits(m.R[6]))
	}
}

func TestJumpAndLink(t *testing.T) {
	m := run(t, `
	start:	lda  r1, sub
		jmp  r2, (r1)      ; call
	back:	addi r4, r3, 1     ; r4 = 8
		halt
	sub:	li   r3, 7
		jmp  r31, (r2)     ; return
	`)
	if m.R[4] != 8 {
		t.Errorf("r4 = %d, want 8", m.R[4])
	}
}

func TestBranchKinds(t *testing.T) {
	m := run(t, `
		li   r1, -1
		clr  r10
		blt  r1, a
		halt
	a:	addi r10, r10, 1
		ble  r1, b
		halt
	b:	addi r10, r10, 1
		bne  r1, c
		halt
	c:	addi r10, r10, 1
		clr  r2
		beq  r2, d
		halt
	d:	addi r10, r10, 1
		bge  r2, e
		halt
	e:	addi r10, r10, 1
		li   r3, 3
		bgt  r3, f
		halt
	f:	addi r10, r10, 1
		br   g
		halt
	g:	addi r10, r10, 1
		halt
	`)
	if m.R[10] != 7 {
		t.Errorf("taken-branch count = %d, want 7", m.R[10])
	}
}

func TestRecordFields(t *testing.T) {
	p, err := asm.Assemble(`
		li   r1, 10        ; 2 records
		lda  r2, buf       ; 2 records
		st   r1, 0(r2)
		ld   r3, 0(r2)
		beq  r31, skip
		halt
	skip:	halt
		.org 0x8000
	buf:	.space 8
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	s := NewStream(m, 0)
	var recs []Record
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// records: ldih,addi, ldih,addi, st, ld, beq, halt
	if len(recs) != 8 {
		t.Fatalf("got %d records: %v", len(recs), recs)
	}
	if recs[7].Inst.Op != isa.OpHalt {
		t.Errorf("last record = %v, want halt", recs[7].Inst)
	}
	st, ld, beq := recs[4], recs[5], recs[6]
	if st.Inst.Op != isa.OpSt || st.EA != 0x8000 {
		t.Errorf("store EA = %#x, want 0x8000", st.EA)
	}
	if ld.Inst.Op != isa.OpLd || ld.EA != 0x8000 {
		t.Errorf("load EA = %#x, want 0x8000", ld.EA)
	}
	if !beq.Taken || beq.NextPC != beq.PC+8 {
		t.Errorf("beq: taken=%v nextPC=%#x pc=%#x", beq.Taken, beq.NextPC, beq.PC)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Errorf("record %d has Seq %d", i, r.Seq)
		}
	}
}

func TestStreamMax(t *testing.T) {
	p := asm.MustAssemble(`
	loop:	addi r1, r1, 1
		br   loop
	`)
	s := NewStream(New(p), 10)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("stream yielded %d records, want 10", n)
	}
}

// Property: memory Write64/Read64 round-trips at arbitrary (possibly
// page-straddling) addresses.
func TestMemoryRoundTrip(t *testing.T) {
	f := func(addr uint64, v uint64) bool {
		addr &= 0xffffff // keep the page map small
		m := NewMemory()
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPageTableGrowsToUse checks the low page table's sizing: it grows to
// reach the highest low-region page installed, never past lowKeys, and
// keys at or above lowKeys go to the sparse map.
func TestPageTableGrowsToUse(t *testing.T) {
	m := NewMemory()
	if len(m.low) != 0 {
		t.Fatalf("empty memory has a %d-entry page table", len(m.low))
	}
	keys := []uint64{3, 1000, lowKeys - 1, lowKeys, lowKeys + 5}
	for i, k := range keys {
		m.Write64(k<<pageBits+8, uint64(i+1))
		if want := min(k+1, lowKeys); uint64(len(m.low)) < want || len(m.low) > lowKeys {
			t.Fatalf("after a write to key %d: %d-entry page table, want %d to %d", k, len(m.low), want, lowKeys)
		}
	}
	if len(m.high) != 2 {
		t.Errorf("sparse map holds %d pages, want 2", len(m.high))
	}
	c := m.Clone()
	for i, k := range keys {
		for _, mm := range []*Memory{m, c} {
			if got := mm.Read64(k<<pageBits + 8); got != uint64(i+1) {
				t.Errorf("key %d reads %d, want %d", k, got, i+1)
			}
		}
	}
	if m.Footprint() != len(keys) || c.Footprint() != len(keys) {
		t.Errorf("footprints %d and %d, want %d", m.Footprint(), c.Footprint(), len(keys))
	}
}

// Property: a straddling write is byte-identical to eight byte writes.
func TestMemoryStraddle(t *testing.T) {
	f := func(off uint8, v uint64) bool {
		addr := uint64(4096) - uint64(off%9) // within 8 of a page boundary
		m1, m2 := NewMemory(), NewMemory()
		m1.Write64(addr, v)
		for i := uint64(0); i < 8; i++ {
			m2.Store8(addr+i, byte(v>>(8*i)))
		}
		for i := uint64(0); i < 8; i++ {
			if m1.Load8(addr+i) != m2.Load8(addr+i) {
				return false
			}
		}
		return m1.Read64(addr) == v && m2.Read64(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRead32(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0x1122334455667788)
	if got := m.Read32(0x1000); got != 0x55667788 {
		t.Errorf("Read32 = %#x, want 0x55667788", got)
	}
	if got := m.Read32(0x1004); got != 0x11223344 {
		t.Errorf("Read32 = %#x, want 0x11223344", got)
	}
	if m.Read32(0x999000) != 0 {
		t.Error("unwritten Read32 should be 0")
	}
}
