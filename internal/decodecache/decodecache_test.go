package decodecache

import (
	"math"
	"runtime"
	"testing"

	"fxa/internal/isa"
)

// TestBuildMatchesISA checks the template against the isa-package
// derivations it memoizes, across every valid opcode and a spread of
// register operands. (Invalid opcodes never reach Build: the emulator
// decodes records before the timing models see them.)
func TestBuildMatchesISA(t *testing.T) {
	regs := []uint8{0, 1, 2, 15, isa.ZeroReg}
	imms := []int32{0, 1, -8}
	for op := 0; op < int(isa.NumOpcodes); op++ {
		for _, rd := range regs {
			for _, ra := range regs {
				for _, imm := range imms {
					in := isa.Inst{Op: isa.Opcode(op), Rd: rd, Ra: ra, Rb: 3, Imm: imm}
					st := Build(in)

					var buf [3]isa.Reg
					srcs := in.Srcs(buf[:0])
					if int(st.NSrc) != len(srcs) {
						t.Fatalf("%v: NSrc=%d want %d", in, st.NSrc, len(srcs))
					}
					for i, r := range srcs {
						if st.Srcs[i] != r {
							t.Fatalf("%v: Srcs[%d]=%v want %v", in, i, st.Srcs[i], r)
						}
					}
					dst, hasDst := in.Dst()
					if st.Dst != dst || st.HasDst != hasDst {
						t.Fatalf("%v: Dst=%v,%v want %v,%v", in, st.Dst, st.HasDst, dst, hasDst)
					}
					cls := in.Op.Class()
					if st.Cls != cls || st.Lat != int64(in.Op.Latency()) {
						t.Fatalf("%v: Cls=%v Lat=%d want %v %d", in, st.Cls, st.Lat, cls, in.Op.Latency())
					}
					if st.Unpipelined != (cls == isa.ClassIntDiv || cls == isa.ClassFPDiv) {
						t.Fatalf("%v: Unpipelined=%v", in, st.Unpipelined)
					}
					if st.IXUElig != in.IXUEligible() {
						t.Fatalf("%v: IXUElig=%v want %v", in, st.IXUElig, in.IXUEligible())
					}
					if st.IsLoad != (cls == isa.ClassLoad) || st.IsStore != (cls == isa.ClassStore) {
						t.Fatalf("%v: IsLoad=%v IsStore=%v cls=%v", in, st.IsLoad, st.IsStore, cls)
					}
					if st.IsBranch != in.IsBranch() || st.IsCond != in.IsCondBranch() {
						t.Fatalf("%v: IsBranch=%v IsCond=%v want %v %v",
							in, st.IsBranch, st.IsCond, in.IsBranch(), in.IsCondBranch())
					}
					if st.IsUncond != (in.Op == isa.OpBr) {
						t.Fatalf("%v: IsUncond=%v", in, st.IsUncond)
					}
					if st.IsReturn != (in.Op == isa.OpJmp && in.Rd == isa.ZeroReg) {
						t.Fatalf("%v: IsReturn=%v", in, st.IsReturn)
					}
					wantReno := in.Op == isa.OpAddi && imm == 0 && hasDst && dst.File == isa.IntFile
					if st.RenoCand != wantReno {
						t.Fatalf("%v: RenoCand=%v want %v", in, st.RenoCand, wantReno)
					}
				}
			}
		}
	}
}

// TestLookupRebuild checks that a slot is rebuilt when the instruction
// word at its PC changes (self-modifying code), including to/from the
// all-zeros nop — which must not be confused with a never-filled slot.
func TestLookupRebuild(t *testing.T) {
	var c Cache
	pc := uint64(0x1000)

	nop := isa.Inst{} // opcode zero is a real nop
	st := c.Lookup(pc, nop)
	if st.Inst != nop || st.Cls != isa.ClassNop {
		t.Fatalf("nop template wrong: %+v", st)
	}

	add := isa.Inst{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}
	st = c.Lookup(pc, add)
	if st.Inst != add || st.Cls != isa.ClassIntALU || !st.HasDst {
		t.Fatalf("slot not rebuilt after rewrite: %+v", st)
	}

	// Back to the nop: equality on the stored Inst must trigger a rebuild
	// again (the slot holds add now).
	st = c.Lookup(pc, nop)
	if st.Inst != nop || st.HasDst {
		t.Fatalf("slot not rebuilt back to nop: %+v", st)
	}
}

// TestLookupUnaligned checks that lookups at PCs with no table slot still
// return a correct template.
func TestLookupUnaligned(t *testing.T) {
	var c Cache
	add := isa.Inst{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}
	st := c.Lookup(0x1002, add)
	if st.Inst != add || st.Cls != isa.ClassIntALU {
		t.Fatalf("unaligned template wrong: %+v", st)
	}
	// The scratch slot must not alias the aligned table.
	st2 := c.Lookup(0x1000, isa.Inst{})
	if st2.Inst != (isa.Inst{}) {
		t.Fatalf("aligned slot polluted by unaligned lookup: %+v", st2)
	}
}

// TestInvalidate checks that Invalidate drops all pages and that lookups
// repopulate afterwards.
func TestInvalidate(t *testing.T) {
	var c Cache
	add := isa.Inst{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}
	c.Lookup(0x1000, add)
	c.Lookup(0x40_0000, add) // second page
	if len(c.pages) != 2 {
		t.Fatalf("pages=%d want 2", len(c.pages))
	}
	c.Invalidate()
	if c.pages != nil || c.cur != nil || c.curKey != 0 {
		t.Fatalf("Invalidate left state: %+v", c)
	}
	st := c.Lookup(0x1000, add)
	if st.Inst != add {
		t.Fatalf("lookup after Invalidate wrong: %+v", st)
	}
}

// TestFirstLookupAllocation pins the table size: a table covers 1 KiB of
// code (256 templates of 48 bytes), so a fresh Cache allocates at most
// 16 KiB for its first Lookup. A 4 KiB page of templates is 48 KiB.
// TotalAlloc also counts other goroutines' allocations, which only add
// bytes, so the test takes the least of several fresh Caches.
func TestFirstLookupAllocation(t *testing.T) {
	add := isa.Inst{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}
	n := uint64(math.MaxUint64)
	for range 5 {
		c := new(Cache)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := c.Lookup(0x1000, add)
		runtime.ReadMemStats(&after)
		n = min(n, after.TotalAlloc-before.TotalAlloc)
		if st.Inst != add {
			t.Fatalf("template wrong: %+v", st)
		}
	}
	t.Logf("first Lookup allocated %d bytes", n)
	if n > 16<<10 {
		t.Errorf("first Lookup allocated %d bytes, want at most 16 KiB", n)
	}
}
