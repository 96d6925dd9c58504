// Block-stepping fast execution.
//
// RunFast is the fast functional-emulation path used by Machine.Run for
// fast-forwarding (SMARTS-style sampling skips orders of magnitude more
// instructions than it simulates in detail, so this loop — not the timing
// core — bounds sampled-simulation wall clock). It executes straight-line
// runs within one predecoded page at a time: instruction dispatch is a
// direct array index into the page's immutable predecode table, no Record
// is constructed, no closures are involved, and the loop only re-resolves
// its page when control leaves it, when a store invalidates predecoded
// code (predGen), or when the instruction budget runs out.
//
// Fidelity contract: RunFast is bit-identical to the reference
// one-Step-per-instruction path for registers, memory, PC, halt state and
// instruction count — enforced by the differential suite in fast_test.go
// over every testdata kernel, every workload proxy, and a self-modifying
// kernel. Anything the fast switch cannot handle (a word that does not
// decode, an unaligned PC, an opcode missing a case) falls back to Step
// for that one instruction so errors and edge semantics surface exactly
// as the slow path would.
package emu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"fxa/internal/isa"
)

// RunFast executes until halt or max instructions through the
// block-stepping fast loop, returning the number executed. It is the
// same architectural transition as runStep (Machine.Run in FFStep mode),
// only faster.
func (m *Machine) RunFast(max uint64) (uint64, error) {
	start := m.InstCount
	for !m.Halt && m.InstCount-start < max {
		if m.PC&3 != 0 {
			// The predecode table only indexes aligned words; take the
			// reference path one instruction at a time.
			if _, ok, err := m.Step(); err != nil {
				return m.InstCount - start, err
			} else if !ok {
				break
			}
			continue
		}
		pp := m.predPage(m.PC >> pageBits)
		if m.execPage(pp, max-(m.InstCount-start)) == 0 {
			// No progress: the slot at PC does not decode, or the fast
			// switch has no case for it. One reference Step surfaces
			// the exact behaviour, error included.
			if _, ok, err := m.Step(); err != nil {
				return m.InstCount - start, err
			} else if !ok {
				break
			}
		}
	}
	return m.InstCount - start, nil
}

// execPage executes instructions from pp starting at m.PC until control
// leaves the page, the machine halts, predecoded code is invalidated, the
// budget is exhausted, or a slot the fast switch cannot handle is reached
// (left unexecuted for the caller to Step through). It commits PC and
// InstCount before returning the number of instructions executed.
//
// The loop runs in "slot space": slot is the aligned-word index of the
// current instruction within the page, and the program counter is only
// materialized (base + slot*4) on exit. Sequential flow is slot+1;
// PC-relative branches add their word offset directly. Because uint64
// arithmetic wraps consistently under *4 (multiplication by 4 is a ring
// homomorphism mod 2^64), a branch that leaves the page — forward or
// backward — produces an out-of-range slot whose materialized PC equals
// exactly what pc+4+imm*4 would have been, so the single range check
// `slot >= slotsPerPage` subsumes both the loop bound and the page-cross
// check of a PC-space loop. Two more per-instruction checks are pushed
// out of the common path: Halt (only OpHalt sets it — handled in its
// case) and predecode invalidation (only stores can trigger the
// code-write hook — the predGen load is guarded by a store-local flag).
func (m *Machine) execPage(pp *predecodePage, budget uint64) uint64 {
	key := m.PC >> pageBits
	base := key << pageBits
	slot := (m.PC & (pageSize - 1)) >> 2
	gen := m.predGen
	mem := m.Mem
	var n uint64

loop:
	for n < budget {
		// slot < slotsPerPage is a loop invariant (checked on every
		// advance); the mask is a semantic no-op that eliminates the
		// bounds check.
		in := pp.insts[slot&(slotsPerPage-1)]
		op := in.Op
		ra := m.R[in.Ra&31]
		imm := int64(in.Imm)
		rd := in.Rd & 31
		var v uint64
		wb := false
		st := false

		switch op {
		case isa.OpNop:
		case isa.OpHalt:
			m.Halt = true
			n++
			slot++
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
			// Open-coded Memory.Read64 fast path (the method body is
			// over the inlining budget): resident low-region page, no
			// page straddle. Everything else, an absent page included,
			// takes the slow path, which faults in generated pages.
			addr := ra + uint64(imm)
			off := addr & (pageSize - 1)
			if k := addr >> pageBits; k < lowKeys && off <= pageSize-8 {
				if p := mem.low[k]; p != nil {
					v, wb = binary.LittleEndian.Uint64(p.data[off:off+8]), true
					break
				}
			}
			v, wb = mem.read64Slow(addr), true
		case isa.OpSt:
			// Open-coded Memory.Write64 fast path: resident, unshared,
			// code-free low-region page and no straddle. This path
			// cannot fire the code-write hook, so it also skips the
			// predGen epilogue check (st stays false).
			addr := ra + uint64(imm)
			off := addr & (pageSize - 1)
			if k := addr >> pageBits; k < lowKeys && off <= pageSize-8 {
				if p := mem.low[k]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
					binary.LittleEndian.PutUint64(p.data[off:off+8], m.R[rd])
					break
				}
			}
			mem.Write64(addr, m.R[rd])
			st = true
		case isa.OpLdbu:
			v, wb = uint64(mem.Load8(ra+uint64(imm))), true
		case isa.OpLdbs:
			v, wb = uint64(int64(int8(mem.Load8(ra+uint64(imm))))), true
		case isa.OpLdhu:
			v, wb = uint64(mem.Read16(ra+uint64(imm))), true
		case isa.OpLdhs:
			v, wb = uint64(int64(int16(mem.Read16(ra+uint64(imm))))), true
		case isa.OpLdwu:
			v, wb = uint64(mem.Read32(ra+uint64(imm))), true
		case isa.OpLdws:
			v, wb = uint64(int64(int32(mem.Read32(ra+uint64(imm))))), true
		case isa.OpStb:
			mem.Store8(ra+uint64(imm), byte(m.R[rd]))
			st = true
		case isa.OpSth:
			mem.Write16(ra+uint64(imm), uint16(m.R[rd]))
			st = true
		case isa.OpStw:
			mem.Write32(ra+uint64(imm), uint32(m.R[rd]))
			st = true
		case isa.OpLdf:
			// Open-coded like OpLd (see there).
			addr := ra + uint64(imm)
			off := addr & (pageSize - 1)
			if k := addr >> pageBits; k < lowKeys && off <= pageSize-8 {
				if p := mem.low[k]; p != nil {
					m.F[rd] = math.Float64frombits(binary.LittleEndian.Uint64(p.data[off : off+8]))
					break
				}
			}
			m.F[rd] = math.Float64frombits(mem.read64Slow(addr))
		case isa.OpStf:
			// Open-coded like OpSt (see there).
			addr := ra + uint64(imm)
			off := addr & (pageSize - 1)
			if k := addr >> pageBits; k < lowKeys && off <= pageSize-8 {
				if p := mem.low[k]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
					binary.LittleEndian.PutUint64(p.data[off:off+8], math.Float64bits(m.F[rd]))
					break
				}
			}
			mem.Write64(addr, math.Float64bits(m.F[rd]))
			st = true
		case isa.OpBeq:
			if ra == 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBne:
			if ra != 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBlt:
			if int64(ra) < 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBge:
			if int64(ra) >= 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBle:
			if int64(ra) <= 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBgt:
			if int64(ra) > 0 {
				n++
				slot += 1 + uint64(imm)
				if slot >= slotsPerPage {
					break loop
				}
				continue
			}
		case isa.OpBr:
			n++
			slot += 1 + uint64(imm)
			if slot >= slotsPerPage {
				break loop
			}
			continue
		case isa.OpJmp:
			t := ra &^ 3
			if rd != isa.ZeroReg {
				m.R[rd] = base + slot*4 + 4
			}
			n++
			if t>>pageBits != key {
				// Off-page jump: commit the absolute target directly
				// (slot-space materialization only covers this page's
				// base).
				m.PC = t
				m.InstCount += n
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
			// invalidOp or an opcode the fast switch does not model:
			// leave it unexecuted for the caller's Step fallback.
			break loop
		}

		if wb && rd != isa.ZeroReg {
			m.R[rd] = v
		}
		n++
		slot++
		if slot >= slotsPerPage {
			// Control left the page (sequential overflow or a branch
			// whose wrapped slot is out of range — either way base +
			// slot*4 is the architecturally correct next PC).
			break
		}
		if st && m.predGen != gen {
			// The store invalidated predecoded code; pp may be stale.
			break
		}
	}
	m.PC = base + slot*4
	m.InstCount += n
	return n
}
