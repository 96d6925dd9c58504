// Block-stepping trace production.
//
// A detailed timing run consumes one Record per executed instruction
// through Stream.NextBatch. Producing those records through Step costs a
// closure-laden switch, a predecode-cache probe and a 48-byte return copy
// per instruction; tracePage instead runs the same slot-space loop as the
// fast-forward path (fast.go) and writes each instruction's Record
// straight into the caller's batch buffer. It reuses execPage's
// predecoded page, control flow, open-coded load/store fast paths and
// block exits; only the record stores are new.
//
// Fidelity contract: the records, and the machine state after each
// batch, are bit-identical to what repeated Stream.Next (one Step per
// instruction) produces — enforced by the differential tests in
// trace_test.go, FuzzTraceMatchesStep, and the root package's
// TestTraceDifferential* over every kernel and proxy. A slot the switch
// cannot handle and an unaligned PC fall back to Step for one
// instruction, so errors surface exactly as on the reference path.
package emu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"fxa/internal/isa"
)

// NextBatch fills buf with the next committed-path records and returns
// how many it produced: the batched form of Next, so a timing front end
// pays the stream-call overhead once per batch instead of once per
// record. The produced record sequence is exactly what repeated Next
// calls would yield.
//
// The buffer is filled completely unless the stream ends — limit
// reached, program halt, or an error, which Err reports from the same
// call — so a short return means the end and the next call returns 0.
// (engine.BatchTrace only promises that 0 means the end; Stream keeps
// the stronger full-buffer guarantee.)
//
// Records come from the block-stepping loop (tracePage), or from Step
// when the machine is in FFStep mode, so a machine set to FFStep feeds a
// whole simulation from the reference interpreter.
func (s *Stream) NextBatch(buf []Record) int {
	m := s.M
	n := 0
	for n < len(buf) && s.err == nil && !m.Halt {
		if m.FF != FFStep && m.PC&3 == 0 {
			want := len(buf) - n
			if s.Max != 0 {
				if m.InstCount >= s.Max {
					break
				}
				want = int(min(uint64(want), s.Max-m.InstCount))
			}
			if k := m.tracePage(m.predPage(m.PC>>pageBits), buf[n:n+want]); k > 0 {
				n += k
				continue
			}
		}
		// FFStep, an unaligned PC, or a slot the block loop leaves
		// unexecuted (a word that does not decode): one reference Step
		// surfaces the exact behaviour, error included.
		rec, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = rec
		n++
	}
	return n
}

// tracePage is execPage's record-emitting sibling: it executes
// instructions from pp starting at m.PC, writing one Record per
// instruction into buf, until buf is full, control leaves the page, the
// machine halts, a store invalidates predecoded code, or a slot the
// switch cannot handle is reached (left unexecuted for the caller to
// Step through). It commits PC and InstCount before returning the number
// of records written. See execPage for the slot-space invariants; next
// is the slot of the architecturally next instruction, so a record's
// NextPC is base + next*4 even when a branch leaves the page.
func (m *Machine) tracePage(pp *predecodePage, buf []Record) int {
	key := m.PC >> pageBits
	base := key << pageBits
	slot := (m.PC & (pageSize - 1)) >> 2
	gen := m.predGen
	mem := m.Mem
	seq := m.InstCount
	n := 0

loop:
	for n < len(buf) {
		in := pp.insts[slot&(slotsPerPage-1)]
		pc := base + slot*4
		ra := m.R[in.Ra&31]
		imm := int64(in.Imm)
		rd := in.Rd & 31
		next := slot + 1
		var v, ea uint64
		wb, st, taken := false, false, false

		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			m.Halt = true
			buf[n].set(seq+uint64(n), pc, in, pc+4, false, 0)
			n++
			slot = next
			break loop
		case isa.OpAdd:
			v, wb = ra+m.R[in.Rb&31], true
		case isa.OpSub:
			v, wb = ra-m.R[in.Rb&31], true
		case isa.OpMul:
			v, wb = ra*m.R[in.Rb&31], true
		case isa.OpDiv:
			if rb := m.R[in.Rb&31]; rb != 0 {
				v = uint64(int64(ra) / int64(rb))
			}
			wb = true
		case isa.OpAnd:
			v, wb = ra&m.R[in.Rb&31], true
		case isa.OpOr:
			v, wb = ra|m.R[in.Rb&31], true
		case isa.OpXor:
			v, wb = ra^m.R[in.Rb&31], true
		case isa.OpSll:
			v, wb = ra<<(m.R[in.Rb&31]&63), true
		case isa.OpSrl:
			v, wb = ra>>(m.R[in.Rb&31]&63), true
		case isa.OpSra:
			v, wb = uint64(int64(ra)>>(m.R[in.Rb&31]&63)), true
		case isa.OpCmpEq:
			v, wb = b2u(ra == m.R[in.Rb&31]), true
		case isa.OpCmpLt:
			v, wb = b2u(int64(ra) < int64(m.R[in.Rb&31])), true
		case isa.OpCmpLe:
			v, wb = b2u(int64(ra) <= int64(m.R[in.Rb&31])), true
		case isa.OpCmpUlt:
			v, wb = b2u(ra < m.R[in.Rb&31]), true
		case isa.OpAndNot:
			v, wb = ra&^m.R[in.Rb&31], true
		case isa.OpOrNot:
			v, wb = ra|^m.R[in.Rb&31], true
		case isa.OpMulh:
			v, _ = bits.Mul64(ra, m.R[in.Rb&31])
			wb = true
		case isa.OpSextB:
			v, wb = uint64(int64(int8(ra))), true
		case isa.OpSextW:
			v, wb = uint64(int64(int32(ra))), true
		case isa.OpPopcnt:
			v, wb = uint64(bits.OnesCount64(ra)), true
		case isa.OpClz:
			v, wb = uint64(bits.LeadingZeros64(ra)), true
		case isa.OpCmovEq:
			v, wb = m.R[in.Rb&31], ra == 0
		case isa.OpCmovNe:
			v, wb = m.R[in.Rb&31], ra != 0
		case isa.OpAddi:
			v, wb = ra+uint64(imm), true
		case isa.OpAndi:
			v, wb = ra&uint64(imm), true
		case isa.OpOri:
			v, wb = ra|uint64(imm), true
		case isa.OpXori:
			v, wb = ra^uint64(imm), true
		case isa.OpSlli:
			v, wb = ra<<(uint64(imm)&63), true
		case isa.OpSrli:
			v, wb = ra>>(uint64(imm)&63), true
		case isa.OpSrai:
			v, wb = uint64(int64(ra)>>(uint64(imm)&63)), true
		case isa.OpCmpEqi:
			v, wb = b2u(ra == uint64(imm)), true
		case isa.OpCmpLti:
			v, wb = b2u(int64(ra) < imm), true
		case isa.OpLdih:
			v, wb = ra+uint64(imm<<14), true
		case isa.OpLd:
			// Open-coded Memory.Read64 fast path, as in execPage.
			ea = ra + uint64(imm)
			off := ea & (pageSize - 1)
			if k, low := ea>>pageBits, mem.low; k < uint64(len(low)) && off <= pageSize-8 {
				if p := low[k]; p != nil {
					v, wb = binary.LittleEndian.Uint64(p.data[off:off+8]), true
					break
				}
			}
			v, wb = mem.read64Slow(ea), true
		case isa.OpSt:
			// Open-coded Memory.Write64 fast path, as in execPage: it
			// cannot fire the code-write hook, so st stays false.
			ea = ra + uint64(imm)
			off := ea & (pageSize - 1)
			if k, low := ea>>pageBits, mem.low; k < uint64(len(low)) && off <= pageSize-8 {
				if p := low[k]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
					binary.LittleEndian.PutUint64(p.data[off:off+8], m.R[rd])
					break
				}
			}
			mem.Write64(ea, m.R[rd])
			st = true
		case isa.OpLdbu:
			ea = ra + uint64(imm)
			v, wb = uint64(mem.Load8(ea)), true
		case isa.OpLdbs:
			ea = ra + uint64(imm)
			v, wb = uint64(int64(int8(mem.Load8(ea)))), true
		case isa.OpLdhu:
			ea = ra + uint64(imm)
			v, wb = uint64(mem.Read16(ea)), true
		case isa.OpLdhs:
			ea = ra + uint64(imm)
			v, wb = uint64(int64(int16(mem.Read16(ea)))), true
		case isa.OpLdwu:
			ea = ra + uint64(imm)
			v, wb = uint64(mem.Read32(ea)), true
		case isa.OpLdws:
			ea = ra + uint64(imm)
			v, wb = uint64(int64(int32(mem.Read32(ea)))), true
		case isa.OpStb:
			ea = ra + uint64(imm)
			mem.Store8(ea, byte(m.R[rd]))
			st = true
		case isa.OpSth:
			ea = ra + uint64(imm)
			mem.Write16(ea, uint16(m.R[rd]))
			st = true
		case isa.OpStw:
			ea = ra + uint64(imm)
			mem.Write32(ea, uint32(m.R[rd]))
			st = true
		case isa.OpLdf:
			// Open-coded like OpLd.
			ea = ra + uint64(imm)
			off := ea & (pageSize - 1)
			if k, low := ea>>pageBits, mem.low; k < uint64(len(low)) && off <= pageSize-8 {
				if p := low[k]; p != nil {
					m.F[rd] = math.Float64frombits(binary.LittleEndian.Uint64(p.data[off : off+8]))
					break
				}
			}
			m.F[rd] = math.Float64frombits(mem.read64Slow(ea))
		case isa.OpStf:
			// Open-coded like OpSt.
			ea = ra + uint64(imm)
			off := ea & (pageSize - 1)
			if k, low := ea>>pageBits, mem.low; k < uint64(len(low)) && off <= pageSize-8 {
				if p := low[k]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
					binary.LittleEndian.PutUint64(p.data[off:off+8], math.Float64bits(m.F[rd]))
					break
				}
			}
			mem.Write64(ea, math.Float64bits(m.F[rd]))
			st = true
		case isa.OpBeq:
			if ra == 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBne:
			if ra != 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBlt:
			if int64(ra) < 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBge:
			if int64(ra) >= 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBle:
			if int64(ra) <= 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBgt:
			if int64(ra) > 0 {
				taken, next = true, next+uint64(imm)
			}
		case isa.OpBr:
			taken, next = true, next+uint64(imm)
		case isa.OpJmp:
			t := ra &^ 3
			if rd != isa.ZeroReg {
				m.R[rd] = pc + 4
			}
			buf[n].set(seq+uint64(n), pc, in, t, true, 0)
			n++
			if t>>pageBits != key {
				// Off-page jump: commit the absolute target directly.
				m.PC = t
				m.InstCount += uint64(n)
				return n
			}
			slot = (t - base) >> 2
			continue
		case isa.OpFAdd:
			m.F[rd] = m.F[in.Ra&31] + m.F[in.Rb&31]
		case isa.OpFSub:
			m.F[rd] = m.F[in.Ra&31] - m.F[in.Rb&31]
		case isa.OpFMul:
			m.F[rd] = m.F[in.Ra&31] * m.F[in.Rb&31]
		case isa.OpFDiv:
			fa, fb := m.F[in.Ra&31], m.F[in.Rb&31]
			if fb == 0 {
				m.F[rd] = 0
			} else {
				m.F[rd] = fa / fb
			}
		case isa.OpFSqrt:
			fa := m.F[in.Ra&31]
			if fa < 0 {
				m.F[rd] = 0
			} else {
				m.F[rd] = math.Sqrt(fa)
			}
		case isa.OpFMov:
			m.F[rd] = m.F[in.Ra&31]
		case isa.OpFNeg:
			m.F[rd] = -m.F[in.Ra&31]
		case isa.OpFCmpEq:
			v, wb = b2u(m.F[in.Ra&31] == m.F[in.Rb&31]), true
		case isa.OpFCmpLt:
			v, wb = b2u(m.F[in.Ra&31] < m.F[in.Rb&31]), true
		case isa.OpFCmpLe:
			v, wb = b2u(m.F[in.Ra&31] <= m.F[in.Rb&31]), true
		case isa.OpCvtIF:
			m.F[rd] = float64(int64(ra))
		case isa.OpCvtFI:
			v, wb = uint64(int64(m.F[in.Ra&31])), true
		default:
			// invalidOp or an opcode the switch does not model: leave it
			// unexecuted for the caller's Step fallback.
			break loop
		}

		if wb && rd != isa.ZeroReg {
			m.R[rd] = v
		}
		buf[n].set(seq+uint64(n), pc, in, base+next*4, taken, ea)
		n++
		slot = next
		if slot >= slotsPerPage {
			// Control left the page; base + slot*4 is the next PC.
			break
		}
		if st && m.predGen != gen {
			// The store invalidated predecoded code; pp may be stale.
			break
		}
	}
	m.PC = base + slot*4
	m.InstCount += uint64(n)
	return n
}

// set overwrites every field of r in place. A composite-literal
// assignment would build the record in a stack temporary and copy it
// with wide loads that stall on the just-written narrow stores.
func (r *Record) set(seq, pc uint64, in isa.Inst, next uint64, taken bool, ea uint64) {
	r.Seq = seq
	r.PC = pc
	r.Inst = in
	r.NextPC = next
	r.Taken = taken
	r.EA = ea
}
