// Package decodecache memoizes per-PC static instruction metadata for the
// timing models.
//
// Both timing cores derive the same static facts for every dynamic
// instance of an instruction: architectural source/destination registers,
// FU class, execution latency, IXU eligibility, branch kind. At simulator
// speed that is several metadata derivations per simulated instruction,
// all of which depend only on the 8-byte decoded isa.Inst — i.e. on the
// static instruction, not the dynamic instance. This package hoists the
// derivation to a slot-indexed table of templates, so building an
// in-flight uop becomes a template stamp plus dynamic fields. The tables
// have the shape of the emulator's predecode tables
// (internal/emu/predecode.go) but each covers 1 KiB of code, not a 4 KiB
// page: a template is 48 bytes, every cell of a sweep builds its tables
// afresh, and the largest proxy's code (992 bytes) fits in one.
//
// Coherence with self-modifying code needs no write hook here: every
// lookup carries the record's authoritative Inst (the emulator already
// decoded the current bytes), and a slot whose stored Inst differs is
// rebuilt in place. The code-write generation (engine.CodeGenTrace)
// additionally lets an engine drop whole stale tables between Step
// slices — hygiene, so a heavily self-modifying program does not
// accumulate pages of dead templates — but bit-exactness never depends
// on it.
package decodecache

import "fxa/internal/isa"

const (
	pageBits = 10
	pageSize = 1 << pageBits // 1 KiB of code per table
	// slotsPerPage is the number of 4-byte instruction slots per table.
	slotsPerPage = pageSize / 4
)

// invalidOp marks a never-filled slot. The zero isa.Inst is a real nop
// (OpNop is opcode zero), so fresh slots need an impossible opcode to
// fail the Inst-equality validity check.
const invalidOp = isa.NumOpcodes

// Static is the decode template of one static instruction: everything a
// timing model derives from isa.Inst alone, computed once per (page,
// slot, Inst) and stamped onto each dynamic instance.
type Static struct {
	// Inst is the instruction the template was built from — the slot
	// validity key. A lookup whose record carries a different Inst (the
	// program rewrote this word) rebuilds the slot.
	Inst isa.Inst

	// Register template.
	Srcs   [3]isa.Reg // architectural sources (zero-register reads omitted)
	NSrc   uint8
	Dst    isa.Reg
	HasDst bool

	// Execution class: FU pool selection, latency, and whether the FU is
	// occupied for the full latency (unpipelined dividers). Cls doubles
	// as the energy-accounting class (stats.Counters.FUOps/
	// CommittedByClass are indexed by it).
	Cls         isa.Class
	Lat         int64
	Unpipelined bool

	IXUElig bool
	IsLoad  bool
	IsStore bool

	// Branch kind, pre-split the way the fetch stages dispatch on it.
	IsBranch bool // redirects control flow (ClassBranch or ClassJump)
	IsCond   bool // conditional direct branch
	IsUncond bool // unconditional direct branch (br)
	IsReturn bool // non-linking indirect jump (jmp r31, (ra)): RAS-predicted

	// RenoCand marks a register move (addi rd, ra, 0 with an integer
	// destination) eliminable by the RENO renamer extension.
	RenoCand bool
}

// Build derives the template for in.
func Build(in isa.Inst) Static {
	var buf [3]isa.Reg
	srcs := in.Srcs(buf[:0])
	st := Static{
		Inst: in,
		NSrc: uint8(len(srcs)),
		Cls:  in.Op.Class(),
		Lat:  int64(in.Op.Latency()),
	}
	copy(st.Srcs[:], srcs)
	st.Dst, st.HasDst = in.Dst()
	st.Unpipelined = st.Cls == isa.ClassIntDiv || st.Cls == isa.ClassFPDiv
	st.IXUElig = in.IXUEligible()
	st.IsLoad = st.Cls == isa.ClassLoad
	st.IsStore = st.Cls == isa.ClassStore
	st.IsBranch = in.IsBranch()
	st.IsCond = in.IsCondBranch()
	st.IsUncond = in.Op == isa.OpBr
	st.IsReturn = in.Op == isa.OpJmp && in.Rd == isa.ZeroReg
	st.RenoCand = in.Op == isa.OpAddi && in.Imm == 0 && st.HasDst &&
		st.Dst.File == isa.IntFile
	return st
}

// page holds the templates of one 1 KiB span of code (12 KiB).
type page struct {
	slots [slotsPerPage]Static
}

func newPage() *page {
	p := new(page)
	for i := range p.slots {
		p.slots[i].Inst.Op = invalidOp
	}
	return p
}

// Cache is one core's per-PC template table. The zero value is ready to
// use. It is not safe for concurrent use — each core owns its own (the
// templates are cheap to rebuild, unlike emu's shared predecode pages).
type Cache struct {
	pages map[uint64]*page
	// One-entry page cache keyed key+1 (0 = none), same trick as
	// emu.Machine.curKey: consecutive fetches nearly always hit the same
	// page.
	curKey uint64
	cur    *page
	// scratch backs lookups at unaligned PCs, which have no table slot.
	scratch Static
}

// Lookup returns the template for the instruction at pc, building or
// rebuilding the slot when it has not seen this exact Inst before. The
// returned pointer is valid until the next Lookup or Invalidate — callers
// stamp (copy) it onto the dynamic instance.
func (c *Cache) Lookup(pc uint64, in isa.Inst) *Static {
	if pc&3 != 0 {
		// Unaligned PC: the table indexes aligned words only (mirroring
		// emu's predecode); derive into the scratch slot.
		c.scratch = Build(in)
		return &c.scratch
	}
	key := pc >> pageBits
	if key+1 != c.curKey {
		if c.pages == nil {
			c.pages = make(map[uint64]*page)
		}
		p := c.pages[key]
		if p == nil {
			p = newPage()
			c.pages[key] = p
		}
		c.cur, c.curKey = p, key+1
	}
	st := &c.cur.slots[(pc&(pageSize-1))>>2]
	if st.Inst != in {
		*st = Build(in)
	}
	return st
}

// Invalidate drops every cached template. Called when the trace's
// code-write generation changes (engine.CodeGenTrace); per-slot
// Inst-equality would keep lookups correct regardless, this just releases
// tables whose templates can no longer match.
func (c *Cache) Invalidate() {
	c.pages = nil
	c.curKey, c.cur = 0, nil
}
