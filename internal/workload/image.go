package workload

// Generated data images (DESIGN.md §8.11).
//
// A proxy's branch and data tables are megabytes of pseudo-random words,
// and a short run reads a fraction of them. Build therefore emits both as
// generated asm.Segments: a size plus a Fill that produces any byte range
// on demand, and emu.New installs them as unmaterialised pages that are
// filled on first touch. The bytes are exactly those the tables always
// had, so every result is unchanged.
//
// The random tables can fill any page on its own because xorshift64 is
// linear over GF(2): one step multiplies the 64-bit state by a fixed
// 64×64 bit matrix T, so the state before word w is T^w times the seed.
// A table of T^(512·2^k) gives the state at any 512-word (4 KiB) block
// boundary in at most one matrix-vector product per set bit of the block
// index; the words within the block are then stepped as before. The
// pointer-chase tables are a Sattolo shuffle, whose every swap depends on
// the stream position of all the swaps before it, so they are shuffled in
// O(n), keeping only the uint32 successor of each slot. That table depends
// on nothing but the proxy's name and slot count, so it is shuffled once
// per process and shared, read-only, by every later Build of the proxy and
// every page fill of every machine running it (chaseTableFor).

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"fxa/internal/asm"
)

// blockWords is the number of table words per jump-table step (one 4 KiB
// page of 8-byte words).
const blockWords = 512

// gf2 is a 64×64 matrix over GF(2), stored by column: column j is the
// image of the state with only bit j set.
type gf2 [64]uint64

// apply returns m·v.
func (m *gf2) apply(v uint64) uint64 {
	var r uint64
	for ; v != 0; v &= v - 1 {
		r ^= m[bits.TrailingZeros64(v)]
	}
	return r
}

// square returns m·m.
func (m *gf2) square() *gf2 {
	var s gf2
	for j := range s {
		s[j] = m.apply(m[j])
	}
	return &s
}

// blockJumps returns T^(blockWords·2^k) for every bit k of a block index
// inside the data region.
var blockJumps = sync.OnceValue(func() []*gf2 {
	t := new(gf2)
	for j := range t {
		r := rng(1) << j
		t[j] = r.next()
	}
	for n := 1; n < blockWords; n *= 2 {
		t = t.square()
	}
	jumps := []*gf2{t}
	for len(jumps) < bits.Len(dataRegion/(blockWords*8)-1) {
		jumps = append(jumps, jumps[len(jumps)-1].square())
	}
	return jumps
})

// advance returns the generator state w steps after r.
func (r rng) advance(w uint64) rng {
	x, jumps := uint64(r), blockJumps()
	for k, b := 0, w/blockWords; b != 0; k, b = k+1, b>>1 {
		if b&1 != 0 {
			x = jumps[k].apply(x)
		}
	}
	s := rng(x)
	for i := w % blockWords; i > 0; i-- {
		s.next()
	}
	return s
}

// randomTable is a table whose word w is derived from the (w+1)-th output
// of the xorshift64 stream seeded with seed: a 0/1 branch condition taken
// with probability bias, or a 12-bit payload word.
type randomTable struct {
	seed   rng
	branch bool
	bias   float64
}

func (t *randomTable) fill(off uint64, dst []byte) { fillWords(off, dst, t.fillAligned) }

// fillAligned fills a whole-word range.
func (t *randomTable) fillAligned(off uint64, dst []byte) {
	r := t.seed.advance(off / 8)
	for ; len(dst) >= 8; dst = dst[8:] {
		x := r.next()
		v := x % 4096
		if t.branch {
			v = 0
			if float64(x%1000)/1000 < t.bias {
				v = 1
			}
		}
		binary.LittleEndian.PutUint64(dst, v)
	}
}

// chaseTable is a pointer cycle over the data footprint: word i holds the
// absolute address of slot next[i].
type chaseTable struct {
	next []uint32
}

// newChaseTable shuffles the n slots with Sattolo's algorithm and chains
// the shuffled order into one cycle: slot perm[i] points at perm[i+1].
func newChaseTable(r *rng, n int) *chaseTable {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.next() % uint64(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, n)
	for i, from := range perm[:n-1] {
		next[from] = perm[i+1]
	}
	next[perm[n-1]] = perm[0]
	return &chaseTable{next: next}
}

// chaseKey names one pointer-chase table: the proxy whose name seeds the
// shuffle, and the table's slot count.
type chaseKey struct {
	name  string
	slots int
}

// chaseTables memoizes the pointer-chase tables built so far, one per
// distinct chaseKey (for the catalog, 5.5 MiB over mcf, omnetpp and
// astar), each built once by its own sync.OnceValue. A table is never
// written after its build, so any number of goroutines may fill pages
// from it.
var (
	chaseMu     sync.Mutex
	chaseTables = map[chaseKey]func() *chaseTable{}
)

// chaseTableFor returns the shared pointer-chase table of the named
// proxy's data footprint of n slots, shuffling it on first use.
func chaseTableFor(name string, n int) *chaseTable {
	k := chaseKey{name, n}
	chaseMu.Lock()
	build, ok := chaseTables[k]
	if !ok {
		build = sync.OnceValue(func() *chaseTable { return newChaseTable(newRNG(name+"/data"), n) })
		chaseTables[k] = build
	}
	chaseMu.Unlock()
	return build()
}

func (t *chaseTable) fill(off uint64, dst []byte) { fillWords(off, dst, t.fillAligned) }

// fillAligned fills a whole-word range.
func (t *chaseTable) fillAligned(off uint64, dst []byte) {
	for i, to := range t.next[off/8 : (off+uint64(len(dst)))/8] {
		binary.LittleEndian.PutUint64(dst[i*8:], dataBase+uint64(to)*8)
	}
}

// fillWords fills bytes [off, off+len(dst)) of a table of 8-byte words
// through aligned, which fills whole-word ranges only. An unaligned range
// (never one a page fault asks for) is widened to whole words in a
// scratch buffer.
func fillWords(off uint64, dst []byte, aligned func(off uint64, dst []byte)) {
	if off%8 == 0 && len(dst)%8 == 0 {
		aligned(off, dst)
		return
	}
	lo, hi := off&^7, (off+uint64(len(dst))+7)&^7
	buf := make([]byte, hi-lo)
	aligned(lo, buf)
	copy(dst, buf[off-lo:])
}

// branchTable returns the generated segment of 8192 words of 0/1 with the
// proxy's taken bias.
func (p Params) branchTable() asm.Segment {
	t := &randomTable{seed: *newRNG(p.Name + "/branch"), branch: true, bias: p.TakenBias}
	return asm.Segment{Addr: brTableBase, Size: brTableLen * 8, Fill: t.fill}
}

// dataTable returns the generated segment of the proxy's data footprint:
// random payload words, or — for Chase — a random pointer cycle covering
// the footprint (each word holds the absolute address of the next
// element).
func (p Params) dataTable() asm.Segment {
	seg := asm.Segment{Addr: dataBase, Size: uint64(p.Footprint)}
	if p.Chase > 0 || p.Pattern == Chase {
		seg.Fill = chaseTableFor(p.Name, p.Footprint/8).fill
	} else {
		seg.Fill = (&randomTable{seed: *newRNG(p.Name + "/data")}).fill
	}
	return seg
}
