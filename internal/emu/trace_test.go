package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/isa"
)

// traceKernels adds, to diffPrograms, the control shapes at which the
// block trace loop ends a block mid-batch.
func traceKernels(t *testing.T) map[string]string {
	return map[string]string{
		// A taken branch leaves the page forwards, and a taken branch
		// on the far page comes back backwards.
		"branch-leaves-page": `
			li   r1, 300
			clr  r2
		loop:	addi r2, r2, 1
			bne  r1, fwd
			halt
			.space 8192
		fwd:	addi r2, r2, 3
			addi r1, r1, -1
			bgt  r1, loop
			halt
		`,
		// A call and its return, each a jmp to another page.
		"jmp-off-page": `
			li   r5, 300
			clr  r6
		loop:	lda  r1, fn
			jmp  r2, (r1)
			addi r5, r5, -1
			bgt  r5, loop
			halt
			.space 8192
		fn:	addi r6, r6, 3
			jmp  r31, (r2)
		`,
		// Stores into the executing page mid-batch: one rewrites an
		// instruction that runs again, the other a data word beside the
		// code. Either bumps predGen and ends the block.
		"store-into-code": smcSource(t),
		"store-code-page-data": `
			li   r1, 500
			lda  r3, slot
		loop:	st   r1, 0(r3)
			ld   r4, 0(r3)
			add  r2, r2, r4
			addi r1, r1, -1
			bgt  r1, loop
			halt
		slot:	.quad 0
		`,
		// Halts a few records into the first batch.
		"halt-mid-batch": `
			li   r1, 7
			addi r2, r1, 1
			halt
		`,
	}
}

// traceNext drains s through Next.
func traceNext(s *Stream) []Record {
	var recs []Record
	for {
		r, ok := s.Next()
		if !ok {
			return recs
		}
		recs = append(recs, r)
	}
}

// traceBatches drains s through NextBatch with a bufSize buffer. It fails
// the test unless every batch but the last is full and the call after a
// short batch returns nothing.
func traceBatches(t *testing.T, s *Stream, bufSize int) []Record {
	t.Helper()
	buf := make([]Record, bufSize)
	var recs []Record
	for {
		n := s.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if n < bufSize {
			if k := s.NextBatch(buf); k != 0 {
				t.Fatalf("NextBatch returned %d records after a short batch of %d", k, n)
			}
			return recs
		}
	}
}

// assertSameTrace fails the test unless got and want are the same
// record sequence.
func assertSameTrace(t *testing.T, name string, got, want []Record) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
}

// TestStreamNextBatchMatchesNext: NextBatch must yield exactly the record
// sequence that repeated Next calls produce, and leave the machine in the
// same state, on every kernel, for any buffer size (1 included), under
// any stream cap (ending at halt, or mid-block: alu-loop's 3-instruction
// prologue and 6-instruction body put record 4,997 two instructions into
// the body), and in both FF modes.
func TestStreamNextBatchMatchesNext(t *testing.T) {
	kernels := traceKernels(t)
	for name, src := range diffPrograms {
		kernels[name] = src
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			p := asm.MustAssemble(src)
			for _, max := range []uint64{0, 1, 2, 4_997} {
				ref := New(p)
				rs := NewStream(ref, max)
				want := traceNext(rs)
				if rs.Err() != nil {
					t.Fatal(rs.Err())
				}
				if max == 0 && !ref.Halt {
					t.Fatalf("%s did not halt; the comparison is truncated", name)
				}
				for _, bufSize := range []int{1, 3, 64, 1000} {
					for _, mode := range []FFMode{FFFast, FFStep} {
						label := fmt.Sprintf("%s max %d buf %d mode %d", name, max, bufSize, mode)
						m := New(p)
						m.FF = mode
						s := NewStream(m, max)
						got := traceBatches(t, s, bufSize)
						if s.Err() != nil {
							t.Fatalf("%s: %v", label, s.Err())
						}
						assertSameTrace(t, label, got, want)
						assertSameState(t, label, m, ref)
					}
				}
			}
		})
	}
}

// fuzzBase is where FuzzTraceMatchesStep loads its code page.
const fuzzBase = asm.DefaultOrg

// fuzzCode turns raw fuzz bytes into one code page, biased towards valid
// encodings: an opcode byte below 0xfc is folded into the defined
// opcodes, the rest (one word in 64) stay undefined. A short input is
// padded with zero words, which decode as nop.
func fuzzCode(raw []byte) []byte {
	page := make([]byte, pageSize)
	copy(page, raw)
	for i := 3; i < pageSize; i += 4 {
		if op := page[i]; op < 0xfc {
			page[i] = op % byte(isa.NumOpcodes)
		}
	}
	return page
}

// fuzzRegs loads the integer registers but the zero register, then the
// FP registers, from consecutive little-endian words of raw (zero-padded).
func fuzzRegs(m *Machine, raw []byte) {
	var b [8 * (isa.NumIntRegs + isa.NumFPRegs)]byte
	copy(b[:], raw)
	for i := range m.R {
		if i != isa.ZeroReg {
			m.R[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	for i := range m.F {
		m.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*(isa.NumIntRegs+i):]))
	}
}

// FuzzTraceMatchesStep runs a fuzzed code page from fuzzed registers and
// start PC (possibly unaligned) for a budget of up to 4,096 instructions,
// once through NextBatch's block trace loop with a fuzzed batch size and
// once through Next (one Step per record). The two must agree on every
// record, on whether and at which PC they fail, and on the final
// registers, memory, PC, halt state and instruction count. Code, data and
// stores share the address space, so fuzzed stores also rewrite the
// executing page.
func FuzzTraceMatchesStep(f *testing.F) {
	regs := make([]byte, 8*isa.NumIntRegs)
	for i := 0; i < isa.NumIntRegs; i++ {
		// Small values near the code page, so seeded loads and stores
		// land on it or beside it.
		binary.LittleEndian.PutUint64(regs[8*i:], fuzzBase+uint64(i)*40)
	}
	for _, name := range []string{"alu-loop", "mem-mixed", "fp-kernel", "branch-dance", "call-chain"} {
		code := asm.MustAssemble(diffPrograms[name]).Segments[0].Data
		f.Add(code, []byte(nil), uint16(3000), uint16(0), uint8(63))
		f.Add(code, regs, uint16(4095), uint16(8), uint8(0))
	}
	noise := make([]byte, 512)
	for i := range noise {
		noise[i] = byte(i*131 + i>>3)
	}
	f.Add(noise, regs, uint16(2000), uint16(0), uint8(5))
	f.Add(noise, regs, uint16(100), uint16(2), uint8(7)) // unaligned start

	f.Fuzz(func(t *testing.T, code, regs []byte, budget, start uint16, bufSel uint8) {
		p := &asm.Program{Entry: fuzzBase, Segments: []asm.Segment{{Addr: fuzzBase, Data: fuzzCode(code)}}}
		max := 1 + uint64(budget)%4096
		ref, m := New(p), New(p)
		for _, mm := range []*Machine{ref, m} {
			fuzzRegs(mm, regs)
			mm.PC = fuzzBase + uint64(start)%pageSize
		}
		rs, s := NewStream(ref, max), NewStream(m, max)
		want := traceNext(rs)
		got := traceBatches(t, s, 1+int(bufSel)%128)
		if (rs.Err() == nil) != (s.Err() == nil) || (rs.Err() != nil && rs.Err().Error() != s.Err().Error()) {
			t.Fatalf("error divergence: batch %v, next %v", s.Err(), rs.Err())
		}
		assertSameTrace(t, "fuzz", got, want)
		assertSameState(t, "fuzz", m, ref)
	})
}
