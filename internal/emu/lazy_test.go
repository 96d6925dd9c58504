package emu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/isa"
)

// Demand-paged images (DESIGN.md §8.11): generated segments are installed
// unmaterialised and every absent-page path faults them in on first touch.

// lazify returns p with every literal segment turned into a generated
// segment over the same bytes, and a counter of its Fill calls.
func lazify(p *asm.Program) (*asm.Program, *atomic.Int64) {
	fills := new(atomic.Int64)
	q := *p
	q.Segments = nil
	for _, s := range p.Segments {
		data := s.Data
		q.Segments = append(q.Segments, asm.Segment{Addr: s.Addr, Size: uint64(len(data)),
			Fill: func(off uint64, dst []byte) {
				fills.Add(1)
				copy(dst, data[off:])
			}})
	}
	return &q, fills
}

// patternByte is byte off of the synthetic generated table.
func patternByte(off uint64) byte { return byte(off*7 + off>>12 + 3) }

// tableBase and tablePages place the synthetic generated table; tableAddr
// is a word inside its third page.
const (
	tableBase  = 0x40000
	tablePages = 12
	tableAddr  = tableBase + 2*pageSize + 16
)

// lazyKernel sums the generated table word by word and stores every
// running sum into a plain .space buffer, so it faults generated pages on
// loads and absent ones on stores.
const lazyKernel = `
	li   r1, 6000
	li   r3, 0x40000
	lda  r4, out
loop:	ld   r5, 0(r3)
	add  r2, r2, r5
	st   r2, 0(r4)
	addi r3, r3, 8
	addi r4, r4, 8
	addi r1, r1, -1
	bne  r1, loop
	halt
	.org 0x80000
out:	.space 8
`

// withTable assembles src and appends the synthetic generated table,
// counting its fills.
func withTable(t *testing.T, src string) (*asm.Program, *atomic.Int64) {
	t.Helper()
	p := asm.MustAssemble(src)
	fills := new(atomic.Int64)
	p.Segments = append(p.Segments, asm.Segment{Addr: tableBase, Size: tablePages * pageSize,
		Fill: func(off uint64, dst []byte) {
			fills.Add(1)
			for i := range dst {
				dst[i] = patternByte(off + uint64(i))
			}
		}})
	return p, fills
}

// tableWord is the generated table's 8-byte word at addr.
func tableWord(addr uint64) uint64 {
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(patternByte(addr-tableBase+i)) << (8 * i)
	}
	return v
}

func TestGeneratedPageFaultsOnFirstTouchOnly(t *testing.T) {
	p, fills := withTable(t, lazyKernel)
	m := New(p)
	base := m.Mem.Footprint()
	if fills.Load() != 0 {
		t.Fatalf("New filled %d generated pages, want 0", fills.Load())
	}
	if got := m.Mem.Read64(tableAddr); got != tableWord(tableAddr) {
		t.Fatalf("Read64 = %#x, want generated %#x", got, tableWord(tableAddr))
	}
	if got := m.Mem.Load8(tableAddr + 1); got != patternByte(tableAddr+1-tableBase) {
		t.Fatalf("Load8 = %#x, want generated %#x", got, patternByte(tableAddr+1-tableBase))
	}
	if fills.Load() != 1 || m.Mem.Footprint() != base+1 {
		t.Fatalf("after two reads of one page: %d fills, %d new pages; want 1 and 1",
			fills.Load(), m.Mem.Footprint()-base)
	}
}

// TestAbsentPageOutsideImageReadsZeroWithoutAllocating: only pages a
// generated segment covers fault in; every other absent page still reads
// as zero and stays absent.
func TestAbsentPageOutsideImageReadsZeroWithoutAllocating(t *testing.T) {
	p, fills := withTable(t, lazyKernel)
	m := New(p)
	base := m.Mem.Footprint()
	const hole = tableBase + tablePages*pageSize + 8 // just past the table
	var v uint64
	allocs := testing.AllocsPerRun(100, func() {
		v |= m.Mem.Read64(hole) | uint64(m.Mem.Load8(hole)) | uint64(m.Mem.Read32(hole))
	})
	if v != 0 || allocs != 0 || fills.Load() != 0 || m.Mem.Footprint() != base {
		t.Errorf("reads outside the image: value %#x, %v allocs, %d fills, %d new pages; want all zero",
			v, allocs, fills.Load(), m.Mem.Footprint()-base)
	}
}

func TestCloneFaultsGeneratedPagesIndependently(t *testing.T) {
	p, fills := withTable(t, lazyKernel)
	m := New(p)
	c := m.Clone()
	key := uint64(tableAddr) >> pageBits
	if got := c.Mem.Read64(tableAddr); got != tableWord(tableAddr) {
		t.Fatalf("clone read %#x, want %#x", got, tableWord(tableAddr))
	}
	if m.Mem.lookup(key) != nil {
		t.Fatal("the clone's fault materialised the page in the parent")
	}
	if got := m.Mem.Read64(tableAddr); got != tableWord(tableAddr) {
		t.Fatalf("parent read %#x, want %#x", got, tableWord(tableAddr))
	}
	if m.Mem.lookup(key) == c.Mem.lookup(key) || fills.Load() != 2 {
		t.Errorf("parent and clone should each fault their own page: shared=%v fills=%d",
			m.Mem.lookup(key) == c.Mem.lookup(key), fills.Load())
	}
}

// TestGeneratedPageCopyOnWrite stores into generated pages on both sides
// of a clone: into one the parent materialised before the clone (shared
// copy-on-write), and into one nobody had touched (the store must land on
// the generated bytes, not on zeroes).
func TestGeneratedPageCopyOnWrite(t *testing.T) {
	p, _ := withTable(t, lazyKernel)
	m := New(p)
	m.Mem.Read64(tableAddr) // materialised before the clone: shared
	c := m.Clone()
	if c.Mem.SharedPages() == 0 {
		t.Fatal("materialised generated page not shared after Clone")
	}
	c.Mem.Write64(tableAddr, 0xdead)
	if got := m.Mem.Read64(tableAddr); got != tableWord(tableAddr) {
		t.Errorf("clone's store leaked into the parent: %#x", got)
	}
	if got := c.Mem.Read64(tableAddr + 8); got != tableWord(tableAddr+8) {
		t.Errorf("detached copy lost a neighbouring generated word: %#x", got)
	}
	untouched := uint64(tableBase + 5*pageSize + 64)
	m.Mem.Write32(untouched, 0xbeef)
	if got := m.Mem.Read64(untouched + 8); got != tableWord(untouched+8) {
		t.Errorf("store into an unmaterialised page zeroed its generated bytes: %#x", got)
	}
	if got := c.Mem.Read64(untouched); got != tableWord(untouched) {
		t.Errorf("parent's store into an untouched page leaked into the clone: %#x", got)
	}
}

// TestDiffSeesGeneratedBytes: Diff and Equal compare an unmaterialised
// page as its generated bytes, and do not materialise it.
func TestDiffSeesGeneratedBytes(t *testing.T) {
	p, _ := withTable(t, lazyKernel)
	a, b := New(p), New(p)
	before := a.Mem.Footprint()
	if !a.Mem.Equal(b.Mem) || a.Mem.Footprint() != before {
		t.Fatal("two fresh loads of one program differ, or Equal materialised pages")
	}
	a.Mem.Read64(tableAddr)
	a.Mem.Write64(tableAddr+8, tableWord(tableAddr+8)) // same bytes
	if !a.Mem.Equal(b.Mem) || !b.Mem.Equal(a.Mem) {
		t.Fatal("a materialised page differs from the same page unmaterialised")
	}
	b.Mem.Write64(tableAddr+8, ^tableWord(tableAddr+8))
	if addr, differs := a.Mem.Diff(b.Mem); !differs || addr != tableAddr+8 {
		t.Errorf("Diff = %#x, %v; want %#x, true", addr, differs, tableAddr+8)
	}
	// Against a memory without the image, the first differing byte is
	// the first non-zero generated one.
	plain := New(asm.MustAssemble(lazyKernel))
	if addr, differs := plain.Mem.Diff(New(p).Mem); !differs || addr != tableBase {
		t.Errorf("Diff against the bare program = %#x, %v; want %#x, true", addr, differs, tableBase)
	}
}

// TestLazyImageRunsLikeEager runs every differential kernel from a fully
// generated image (code included) in both fast-forward modes and checks
// it ends in exactly the state of the eager load: predecoding from a
// faulted page and self-modifying stores into one keep the predecode
// tables coherent.
func TestLazyImageRunsLikeEager(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			p := asm.MustAssemble(src)
			lp, _ := lazify(p)
			eager := New(p)
			eager.FF = FFStep
			if _, err := eager.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []FFMode{FFFast, FFStep} {
				lazy := New(lp)
				lazy.FF = mode
				if _, err := lazy.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				assertSameState(t, fmt.Sprintf("%s/mode%d", name, mode), lazy, eager)
			}
		})
	}
}

// TestSelfModifyingGeneratedCode stores into generated code pages and
// executes the result, from a fully generated image: a patch into a page
// nothing has touched yet (the store faults it in, and the predecode table
// built afterwards must see the patch), and a patch into a page already
// predecoded (the code-write hook must drop its table).
func TestSelfModifyingGeneratedCode(t *testing.T) {
	patched, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 5, Ra: isa.ZeroReg, Imm: 222})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src string
		r6        uint64
	}{
		{"before-fetch", `
			lda  r1, target
			lda  r2, word
			ldwu r3, 0(r2)
			stw  r3, 0(r1)      ; patch the far page before it is fetched
			br   target
			.org 0x30000
		target:	addi r5, r31, 111   ; becomes "addi r5, r31, 222"
			add  r6, r6, r5
			halt
			.org 0x20000
		word:	.quad %d
		`, 222},
		{"after-predecode", `
			lda  r1, target
			lda  r2, word
			ldwu r3, 0(r2)
			clr  r4
		target:	addi r5, r31, 111   ; runs once, then becomes "addi r5, r31, 222"
			add  r6, r6, r5
			addi r4, r4, 1
			cmplti r7, r4, 2
			beq  r7, done
			stw  r3, 0(r1)
			br   target
		done:	halt
			.org 0x20000
		word:	.quad %d
		`, 333},
	} {
		p, _ := lazify(asm.MustAssemble(fmt.Sprintf(tc.src, patched)))
		for _, mode := range []FFMode{FFFast, FFStep} {
			m := New(p)
			m.FF = mode
			if _, err := m.Run(100); err != nil {
				t.Fatal(err)
			}
			if !m.Halt || m.R[6] != tc.r6 {
				t.Errorf("%s, mode %d: halt=%v r6=%d, want %d", tc.name, mode, m.Halt, m.R[6], tc.r6)
			}
		}
	}
}

// TestConcurrentLazyClones runs several clones of one lazily loaded
// machine on separate goroutines while the original advances: each faults
// generated pages into its own table through the shared, concurrent Fill.
// All must end in the identical state; under -race this also proves the
// shared image is data-race-free.
func TestConcurrentLazyClones(t *testing.T) {
	p, _ := withTable(t, lazyKernel)
	m := New(p)
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	const clones, advance = 6, 50_000
	cs := make([]*Machine, clones)
	for i := range cs {
		cs[i] = m.Clone()
	}
	var wg sync.WaitGroup
	errs := make([]error, clones)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *Machine) {
			defer wg.Done()
			_, errs[i] = c.Run(advance)
		}(i, c)
	}
	if _, err := m.Run(advance); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, c := range cs {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if c.R != m.R || c.PC != m.PC || c.InstCount != m.InstCount || !c.Mem.Equal(m.Mem) {
			t.Fatalf("clone %d diverged from the original", i)
		}
	}
	if !m.Halt || m.R[2] == 0 {
		t.Fatal("kernel did not run to completion over the table; test is vacuous")
	}
}
