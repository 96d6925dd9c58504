package workload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"fxa/internal/asm"
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
// on which pages were filled before.
func TestGeneratedTablesMatchEagerReference(t *testing.T) {
	const page = 4096
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
