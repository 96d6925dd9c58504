package emu

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"fxa/internal/asm"
	"fxa/internal/isa"
)

// Record describes one architecturally executed (committed-path) dynamic
// instruction. The timing models consume a stream of Records and model
// speculation around it.
type Record struct {
	Seq    uint64   // dynamic sequence number, starting at 0
	PC     uint64   // address of the instruction
	Inst   isa.Inst // decoded instruction
	NextPC uint64   // architecturally next PC (branch outcome included)
	Taken  bool     // for branches: taken?
	EA     uint64   // effective address for loads/stores
}

// FFMode selects how Machine.Run executes a functional fast-forward.
type FFMode uint8

const (
	// FFFast (the default) executes through the page-predecoded
	// block-stepping loop (RunFast): no per-instruction map lookup, no
	// Record construction. Bit-identical to FFStep by the differential
	// suite.
	FFFast FFMode = iota
	// FFStep executes one Step per instruction — the reference path,
	// kept for cross-checking (fxabench -ffmode step).
	FFStep
)

// defaultFFMode is the mode new machines start in; see SetDefaultFFMode.
var defaultFFMode atomic.Uint32

// SetDefaultFFMode sets the fast-forward mode that New assigns to fresh
// machines (existing machines are unaffected). Intended for process-wide
// configuration at startup, e.g. fxabench -ffmode.
func SetDefaultFFMode(mode FFMode) { defaultFFMode.Store(uint32(mode)) }

// DefaultFFMode returns the mode New assigns to fresh machines.
func DefaultFFMode() FFMode { return FFMode(defaultFFMode.Load()) }

// Machine is the architectural state of one program.
type Machine struct {
	R    [isa.NumIntRegs]uint64
	F    [isa.NumFPRegs]float64
	PC   uint64
	Mem  *Memory
	Halt bool

	// InstCount is the number of instructions executed so far.
	InstCount uint64

	// FF selects the fast-forward path taken by Run. Initialized from
	// the package default (SetDefaultFFMode); may be overridden per
	// machine.
	FF FFMode

	// Page-indexed predecode state (predecode.go). pred maps page key
	// to its immutable decoded table; predGen counts invalidations so
	// the fast loop can detect self-modifying code mid-block; curKey/cur
	// cache the last table used by Step (key+1, 0 = none).
	pred    map[uint64]*predecodePage
	predGen uint64
	curKey  uint64
	cur     *predecodePage
}

// New creates a machine with the program image loaded and PC at its entry.
// Literal segments are copied in; generated segments are installed as
// unmaterialised pages that fill on first touch (DESIGN.md §8.11).
func New(p *asm.Program) *Machine {
	m := &Machine{
		Mem:  NewMemory(),
		FF:   DefaultFFMode(),
		pred: make(map[uint64]*predecodePage),
	}
	m.Mem.setCodeWriteHook(m.invalidateCode)
	// The image goes in first, so a literal segment sharing a page with
	// a generated one lands on the page's generated bytes.
	m.Mem.img = newImage(p)
	for _, seg := range p.Segments {
		if seg.Fill == nil {
			m.Mem.WriteBytes(seg.Addr, seg.Data)
		}
	}
	m.PC = p.Entry
	return m
}

// Clone returns an independent copy of the machine: registers, PC, halt
// state, instruction count, a copy-on-write snapshot of memory, and the
// predecode page table. The clone executes independently of the original —
// the sampling harness uses it to snapshot architectural state at a
// detailed-window boundary so windows can be simulated in parallel while
// the functional machine advances, possibly on other goroutines.
//
// The cost is two pointer-table copies: memory pages are shared until
// first write (Memory.Clone), and predecode tables are immutable so the
// clone shares them outright — decoding is never repeated (the seed
// copied its whole decode cache entry by entry here). Each machine keeps
// its own table *map*, so self-modifying code in one machine drops only
// that machine's tables; the other's copy-on-write memory still holds the
// bytes its shared tables were built from.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		R:         m.R,
		F:         m.F,
		PC:        m.PC,
		Mem:       m.Mem.Clone(),
		Halt:      m.Halt,
		InstCount: m.InstCount,
		FF:        m.FF,
		pred:      make(map[uint64]*predecodePage, len(m.pred)),
		predGen:   m.predGen,
	}
	for key, pp := range m.pred {
		c.pred[key] = pp
	}
	c.Mem.setCodeWriteHook(c.invalidateCode)
	return c
}

// Step executes one instruction and returns its Record. Executing past a
// halt returns ok=false. Undefined opcodes return an error.
func (m *Machine) Step() (Record, bool, error) {
	if m.Halt {
		return Record{}, false, nil
	}
	in, ok := m.lookupInst(m.PC)
	if !ok {
		// The predecode slot is unusable (bad word, or unaligned PC):
		// decode directly so the exact error — or exact unaligned-fetch
		// semantics — surfaces.
		var err error
		in, err = isa.Decode(m.Mem.Read32(m.PC))
		if err != nil {
			return Record{}, false, fmt.Errorf("emu: at PC %#x: %w", m.PC, err)
		}
	}
	rec := Record{Seq: m.InstCount, PC: m.PC, Inst: in, NextPC: m.PC + 4}

	ra, rb := m.R[in.Ra], m.R[in.Rb]
	fa, fb := m.F[in.Ra], m.F[in.Rb]
	imm := int64(in.Imm)
	setR := func(v uint64) {
		if in.Rd != isa.ZeroReg {
			m.R[in.Rd] = v
		}
	}
	setF := func(v float64) { m.F[in.Rd] = v }

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		m.Halt = true
	case isa.OpAdd:
		setR(ra + rb)
	case isa.OpSub:
		setR(ra - rb)
	case isa.OpMul:
		setR(ra * rb)
	case isa.OpDiv:
		if rb == 0 {
			setR(0)
		} else {
			setR(uint64(int64(ra) / int64(rb)))
		}
	case isa.OpAnd:
		setR(ra & rb)
	case isa.OpOr:
		setR(ra | rb)
	case isa.OpXor:
		setR(ra ^ rb)
	case isa.OpSll:
		setR(ra << (rb & 63))
	case isa.OpSrl:
		setR(ra >> (rb & 63))
	case isa.OpSra:
		setR(uint64(int64(ra) >> (rb & 63)))
	case isa.OpCmpEq:
		setR(b2u(ra == rb))
	case isa.OpCmpLt:
		setR(b2u(int64(ra) < int64(rb)))
	case isa.OpCmpLe:
		setR(b2u(int64(ra) <= int64(rb)))
	case isa.OpCmpUlt:
		setR(b2u(ra < rb))
	case isa.OpAndNot:
		setR(ra &^ rb)
	case isa.OpOrNot:
		setR(ra | ^rb)
	case isa.OpMulh:
		hi, _ := bits.Mul64(ra, rb)
		setR(hi)
	case isa.OpSextB:
		setR(uint64(int64(int8(ra))))
	case isa.OpSextW:
		setR(uint64(int64(int32(ra))))
	case isa.OpPopcnt:
		setR(uint64(bits.OnesCount64(ra)))
	case isa.OpClz:
		setR(uint64(bits.LeadingZeros64(ra)))
	case isa.OpCmovEq:
		if ra == 0 {
			setR(rb)
		}
	case isa.OpCmovNe:
		if ra != 0 {
			setR(rb)
		}
	case isa.OpAddi:
		setR(ra + uint64(imm))
	case isa.OpAndi:
		setR(ra & uint64(imm))
	case isa.OpOri:
		setR(ra | uint64(imm))
	case isa.OpXori:
		setR(ra ^ uint64(imm))
	case isa.OpSlli:
		setR(ra << (uint64(imm) & 63))
	case isa.OpSrli:
		setR(ra >> (uint64(imm) & 63))
	case isa.OpSrai:
		setR(uint64(int64(ra) >> (uint64(imm) & 63)))
	case isa.OpCmpEqi:
		setR(b2u(ra == uint64(imm)))
	case isa.OpCmpLti:
		setR(b2u(int64(ra) < imm))
	case isa.OpLdih:
		setR(ra + uint64(imm<<14))
	case isa.OpLd:
		rec.EA = ra + uint64(imm)
		setR(m.Mem.Read64(rec.EA))
	case isa.OpSt:
		rec.EA = ra + uint64(imm)
		m.Mem.Write64(rec.EA, m.R[in.Rd])
	case isa.OpLdbu:
		rec.EA = ra + uint64(imm)
		setR(uint64(m.Mem.Load8(rec.EA)))
	case isa.OpLdbs:
		rec.EA = ra + uint64(imm)
		setR(uint64(int64(int8(m.Mem.Load8(rec.EA)))))
	case isa.OpLdhu:
		rec.EA = ra + uint64(imm)
		setR(uint64(m.Mem.Read16(rec.EA)))
	case isa.OpLdhs:
		rec.EA = ra + uint64(imm)
		setR(uint64(int64(int16(m.Mem.Read16(rec.EA)))))
	case isa.OpLdwu:
		rec.EA = ra + uint64(imm)
		setR(uint64(m.Mem.Read32(rec.EA)))
	case isa.OpLdws:
		rec.EA = ra + uint64(imm)
		setR(uint64(int64(int32(m.Mem.Read32(rec.EA)))))
	case isa.OpStb:
		rec.EA = ra + uint64(imm)
		m.Mem.Store8(rec.EA, byte(m.R[in.Rd]))
	case isa.OpSth:
		rec.EA = ra + uint64(imm)
		m.Mem.Write16(rec.EA, uint16(m.R[in.Rd]))
	case isa.OpStw:
		rec.EA = ra + uint64(imm)
		m.Mem.Write32(rec.EA, uint32(m.R[in.Rd]))
	case isa.OpLdf:
		rec.EA = ra + uint64(imm)
		setF(math.Float64frombits(m.Mem.Read64(rec.EA)))
	case isa.OpStf:
		rec.EA = ra + uint64(imm)
		m.Mem.Write64(rec.EA, math.Float64bits(m.F[in.Rd]))
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt, isa.OpBr:
		taken := false
		switch in.Op {
		case isa.OpBeq:
			taken = ra == 0
		case isa.OpBne:
			taken = ra != 0
		case isa.OpBlt:
			taken = int64(ra) < 0
		case isa.OpBge:
			taken = int64(ra) >= 0
		case isa.OpBle:
			taken = int64(ra) <= 0
		case isa.OpBgt:
			taken = int64(ra) > 0
		case isa.OpBr:
			taken = true
		}
		rec.Taken = taken
		if taken {
			rec.NextPC = m.PC + 4 + uint64(int64(in.Imm)*4)
		}
	case isa.OpJmp:
		rec.Taken = true
		rec.NextPC = ra &^ 3
		setR(m.PC + 4)
	case isa.OpFAdd:
		setF(fa + fb)
	case isa.OpFSub:
		setF(fa - fb)
	case isa.OpFMul:
		setF(fa * fb)
	case isa.OpFDiv:
		if fb == 0 {
			setF(0)
		} else {
			setF(fa / fb)
		}
	case isa.OpFSqrt:
		if fa < 0 {
			setF(0)
		} else {
			setF(math.Sqrt(fa))
		}
	case isa.OpFMov:
		setF(fa)
	case isa.OpFNeg:
		setF(-fa)
	case isa.OpFCmpEq:
		setR(b2u(fa == fb))
	case isa.OpFCmpLt:
		setR(b2u(fa < fb))
	case isa.OpFCmpLe:
		setR(b2u(fa <= fb))
	case isa.OpCvtIF:
		setF(float64(int64(ra)))
	case isa.OpCvtFI:
		setR(uint64(int64(fa)))
	default:
		return Record{}, false, fmt.Errorf("emu: unimplemented opcode %s at PC %#x", in.Op.Name(), m.PC)
	}

	m.PC = rec.NextPC
	m.InstCount++
	return rec, true, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run executes until halt or max instructions, returning the number
// executed. Fast-forwards take the block-stepping fast loop (RunFast)
// unless the machine is in FFStep mode; the two are bit-identical.
func (m *Machine) Run(max uint64) (uint64, error) {
	if m.FF == FFStep {
		return m.runStep(max)
	}
	return m.RunFast(max)
}

// runStep is the reference fast-forward: one Step per instruction.
func (m *Machine) runStep(max uint64) (uint64, error) {
	start := m.InstCount
	for !m.Halt && m.InstCount-start < max {
		if _, ok, err := m.Step(); err != nil {
			return m.InstCount - start, err
		} else if !ok {
			break
		}
	}
	return m.InstCount - start, nil
}

// Stream adapts a Machine into the dynamic-trace interface the timing
// models consume. It stops after Max records or at program halt, whichever
// comes first.
type Stream struct {
	M   *Machine
	Max uint64 // 0 means unlimited
	err error
}

// NewStream wraps m. max==0 means run to halt.
func NewStream(m *Machine, max uint64) *Stream {
	return &Stream{M: m, Max: max}
}

// Next returns the next committed-path instruction record.
func (s *Stream) Next() (Record, bool) {
	if s.err != nil || (s.Max != 0 && s.M.InstCount >= s.Max) {
		return Record{}, false
	}
	rec, ok, err := s.M.Step()
	if err != nil {
		s.err = err
		return Record{}, false
	}
	return rec, ok
}

// NextBatch fills buf with the next committed-path records and returns
// how many it produced: the batched form of Next, so a timing front end
// pays the stream-call overhead once per batch instead of once per
// record. A short return (including 0) means the stream ended — limit
// reached, program halt, or an error (see Err). The produced record
// sequence is exactly what repeated Next calls would yield.
func (s *Stream) NextBatch(buf []Record) int {
	n := 0
	for n < len(buf) {
		if s.err != nil || (s.Max != 0 && s.M.InstCount >= s.Max) {
			break
		}
		rec, ok, err := s.M.Step()
		if err != nil {
			s.err = err
			break
		}
		if !ok {
			break
		}
		buf[n] = rec
		n++
	}
	return n
}

// Err reports a decode/execution error that terminated the stream, if any.
func (s *Stream) Err() error { return s.err }

// CodeGen reports the backing machine's code-write generation
// (engine.CodeGenTrace): timing engines probe for it to invalidate their
// per-PC static decode caches when self-modifying code rewrites a page.
func (s *Stream) CodeGen() uint64 { return s.M.CodeGen() }
