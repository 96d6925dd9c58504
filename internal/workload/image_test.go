package workload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
)

// refBranchTable is the eager reference generator of the branch table:
// 8192 words of 0/1 with the proxy's taken bias, stepped sequentially.
func refBranchTable(p Params) []byte {
	r := newRNG(p.Name + "/branch")
	buf := make([]byte, brTableLen*8)
	for i := 0; i < brTableLen; i++ {
		v := uint64(0)
		if float64(r.next()%1000)/1000 < p.TakenBias {
			v = 1
		}
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	return buf
}

// refDataTable is the eager reference generator of the data table: random
// payload words, or for Chase a Sattolo pointer cycle over the footprint.
func refDataTable(p Params) []byte {
	n := p.Footprint / 8
	buf := make([]byte, p.Footprint)
	r := newRNG(p.Name + "/data")
	if p.Chase > 0 || p.Pattern == Chase {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(r.next() % uint64(i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := 0; i < n; i++ {
			from := perm[i]
			to := perm[(i+1)%n]
			binary.LittleEndian.PutUint64(buf[from*8:], uint64(dataBase+to*8))
		}
		return buf
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], r.next()%4096)
	}
	return buf
}

// resetPrograms forgets every assembled program and the tables it holds,
// so that goroutines race to build them again.
func resetPrograms() {
	programsMu.Lock()
	clear(programs)
	programsMu.Unlock()
}

// segmentAt returns prog's segment starting at addr.
func segmentAt(t *testing.T, prog *asm.Program, addr uint64) asm.Segment {
	t.Helper()
	for _, s := range prog.Segments {
		if s.Addr == addr {
			return s
		}
	}
	t.Fatalf("no segment at %#x", addr)
	return asm.Segment{}
}

// materialize fills a generated segment's whole image.
func materialize(s asm.Segment) []byte {
	buf := make([]byte, s.Size)
	s.Fill(0, buf)
	return buf
}

// TestGeneratedTablesMatchEagerReference visits every page of both
// generated tables of every proxy in a seeded random order and checks each
// against the sequential reference generator: page fills must not depend
// on which pages were filled before. It then reads each table at seeded
// random offsets and sizes, page straddles included, through fresh
// machines, which serve most reads from the generator without making the
// page resident (emu's read-through): every value must equal the
// reference's bytes.
func TestGeneratedTablesMatchEagerReference(t *testing.T) {
	const page, reads = 4096, 100
	rnd := rand.New(rand.NewSource(14))
	for _, p := range Catalog() {
		prog, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			seg  asm.Segment
			want []byte
		}{
			{segmentAt(t, prog, brTableBase), refBranchTable(p)},
			{segmentAt(t, prog, dataBase), refDataTable(p)},
		} {
			if tc.seg.Data != nil || tc.seg.Fill == nil || tc.seg.Size != uint64(len(tc.want)) {
				t.Fatalf("%s %#x: not a generated segment of %d bytes", p.Name, tc.seg.Addr, len(tc.want))
			}
			got := make([]byte, page)
			for _, pg := range rnd.Perm(len(tc.want) / page) {
				off := pg * page
				tc.seg.Fill(uint64(off), got)
				if !bytes.Equal(got, tc.want[off:off+page]) {
					t.Fatalf("%s %#x: page %d differs from the reference", p.Name, tc.seg.Addr, pg)
				}
			}
			var m *emu.Machine
			for i := 0; i < reads; i++ {
				if i%8 == 0 {
					m = emu.New(prog)
				}
				off := uint64(rnd.Intn(len(tc.want) - 8))
				if i%5 == 0 { // straddle a page boundary
					off = uint64(rnd.Intn(len(tc.want)/page-1)+1)*page - 1 - uint64(rnd.Intn(7))
				}
				size := []int{1, 2, 4, 8}[rnd.Intn(4)]
				addr := tc.seg.Addr + off
				var v uint64
				switch size {
				case 1:
					v = uint64(m.Mem.Load8(addr))
				case 2:
					v = uint64(m.Mem.Read16(addr))
				case 4:
					v = uint64(m.Mem.Read32(addr))
				case 8:
					v = m.Mem.Read64(addr)
				}
				var want uint64
				for j := size - 1; j >= 0; j-- {
					want = want<<8 | uint64(tc.want[off+uint64(j)])
				}
				if v != want {
					t.Fatalf("%s %#x: %d-byte read at offset %#x = %#x, want %#x", p.Name, tc.seg.Addr, size, off, v, want)
				}
			}
		}
	}
}

// TestFillArbitraryRanges checks the Fill contract below page granularity:
// unaligned offsets and lengths, and ranges spanning several blocks.
func TestFillArbitraryRanges(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, name := range []string{"gcc", "omnetpp"} {
		p, _ := ByName(name)
		prog := p.MustBuild()
		for _, seg := range []asm.Segment{segmentAt(t, prog, brTableBase), segmentAt(t, prog, dataBase)} {
			want := materialize(seg)
			for i := 0; i < 200; i++ {
				off := rnd.Intn(len(want))
				n := rnd.Intn(min(len(want)-off, 3*4096)) + 1
				got := make([]byte, n)
				seg.Fill(uint64(off), got)
				if !bytes.Equal(got, want[off:off+n]) {
					t.Fatalf("%s %#x: Fill(%d, %d bytes) differs", name, seg.Addr, off, n)
				}
			}
		}
	}
}

// TestRebuildSharesChaseTable checks that a proxy's pointer-chase table
// is shuffled once per process: after one Build of mcf, a second
// allocates under 1 MiB. Shuffling its 8 MiB footprint again would
// allocate about 8.4 MiB (the perm and next arrays).
func TestRebuildSharesChaseTable(t *testing.T) {
	p, _ := ByName("mcf")
	p.MustBuild()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.MustBuild()
	runtime.ReadMemStats(&after)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("a second Build of mcf allocated %d bytes", n)
	if n >= 1<<20 {
		t.Errorf("a second Build of mcf allocated %d bytes, want under 1 MiB", n)
	}
}

// TestConcurrentBuildsShareChaseTables builds the three pointer-chasing
// proxies and milc (random payload words, whose sector states fill as the
// goroutines read) on eight goroutines at once, starting from an empty
// program memo. Each goroutine reads every word of random data pages
// through its own machine (a read-through, then a fault) and random words
// through a clone of it (faults): every word must read as the eager
// reference. Run it under `go test -race -count=10` after touching the
// memo, the tables it shares or read-through.
func TestConcurrentBuildsShareChaseTables(t *testing.T) {
	const goroutines, pages, cloneReads = 8, 16, 64
	var ps []Params
	var refs [][]byte
	for _, name := range []string{"mcf", "omnetpp", "astar", "milc"} {
		p, _ := ByName(name)
		ps = append(ps, p)
		refs = append(refs, refDataTable(p))
	}
	// Empty the memo, so the goroutines race to assemble each program,
	// shuffle each chase table and fill each sector state.
	resetPrograms()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for j := range ps {
				i := (g + j) % len(ps) // each goroutine starts on a different proxy
				p, ref := ps[i], refs[i]
				prog, err := p.Build()
				if err != nil {
					t.Error(err)
					return
				}
				m := emu.New(prog)
				check := func(mem *emu.Memory, off int) bool {
					got := mem.Read64(dataBase + uint64(off))
					if want := binary.LittleEndian.Uint64(ref[off:]); got != want {
						t.Errorf("%s: word at data offset %#x reads %#x, want %#x", p.Name, off, got, want)
						return false
					}
					return true
				}
				for _, pg := range rnd.Perm(p.Footprint / 4096)[:pages] {
					for off := pg * 4096; off < (pg+1)*4096; off += 8 {
						if !check(m.Mem, off) {
							return
						}
					}
				}
				c := m.Clone()
				for k := 0; k < cloneReads; k++ {
					if !check(c.Mem, rnd.Intn(p.Footprint/8)*8) {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
