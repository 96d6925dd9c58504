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
// The random tables can fill any word on its own because xorshift64 is
// linear over GF(2): one step multiplies the 64-bit state by a fixed
// 64×64 bit matrix T, so the state before word w is T^w times the seed.
// A table of T^(64·2^k) gives the state at any 64-word (512-byte) sector
// start in at most one matrix-vector product per set bit of the sector
// index. Each table memoizes the state at every sector start on first use
// (randomTable.stateAt), so a word costs at most 63 steps and a page fill
// starts from the memo. The pointer-chase tables are a Sattolo shuffle,
// whose every swap depends on the stream position of all the swaps before
// it, so they are shuffled in O(n), keeping only the uint32 successor of
// each slot. Build assembles each Params value once per process
// (programs), so both kinds are built once and shared, read-only, by every
// later Build of the proxy and every page fill of every machine running
// it. Since either kind produces a single word cheaply, emu serves a
// cell's sparse reads from them without making the page resident.

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"fxa/internal/asm"
)

// sectorWords is the number of table words per memoized generator state
// and per jump-table step: one 512-byte sector.
const sectorWords = 64

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

// sectorJumps returns T^(sectorWords·2^k) for every bit k of a sector
// index inside the data region.
var sectorJumps = sync.OnceValue(func() []*gf2 {
	t := new(gf2)
	for j := range t {
		r := rng(1) << j
		t[j] = r.next()
	}
	for n := 1; n < sectorWords; n *= 2 {
		t = t.square()
	}
	jumps := []*gf2{t}
	for len(jumps) < bits.Len(dataRegion/(sectorWords*8)-1) {
		jumps = append(jumps, jumps[len(jumps)-1].square())
	}
	return jumps
})

// advance returns the generator state w steps after r.
func (r rng) advance(w uint64) rng {
	x, jumps := uint64(r), sectorJumps()
	for k, b := 0, w/sectorWords; b != 0; k, b = k+1, b>>1 {
		if b&1 != 0 {
			x = jumps[k].apply(x)
		}
	}
	s := rng(x)
	for i := w % sectorWords; i > 0; i-- {
		s.next()
	}
	return s
}

// randomTable is a table whose word w is derived from the (w+1)-th output
// of the xorshift64 stream seeded with seed: a 0/1 branch condition taken
// with probability bias, or a 12-bit payload word. at memoizes the
// generator state before each sector's first word on first use: 8 bytes
// per 512 bytes of table. A zero entry is one not yet computed
// (xorshift64 never reaches state 0); goroutines that race on one compute
// the same value.
type randomTable struct {
	seed   rng
	at     []atomic.Uint64
	branch bool
	bias   float64
}

// newRandomTable returns a payload table of the given number of words,
// seeded by name, with no sector state computed yet.
func newRandomTable(name string, words int) *randomTable {
	return &randomTable{seed: *newRNG(name), at: make([]atomic.Uint64, (words+sectorWords-1)/sectorWords)}
}

// stateAt returns the generator state before word w.
func (t *randomTable) stateAt(w uint64) rng {
	at := &t.at[w/sectorWords]
	x := at.Load()
	if x == 0 {
		x = uint64(t.seed.advance(w &^ (sectorWords - 1)))
		at.Store(x)
	}
	r := rng(x)
	for i := w % sectorWords; i > 0; i-- {
		r.next()
	}
	return r
}

func (t *randomTable) fill(off uint64, dst []byte) { fillWords(off, dst, t.fillAligned) }

// fillAligned fills a whole-word range.
func (t *randomTable) fillAligned(off uint64, dst []byte) {
	r := t.stateAt(off / 8)
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
	t := newRandomTable(p.Name+"/branch", brTableLen)
	t.branch, t.bias = true, p.TakenBias
	return asm.Segment{Addr: brTableBase, Size: brTableLen * 8, Fill: t.fill}
}

// dataTable returns the generated segment of the proxy's data footprint:
// random payload words, or — for Chase — a random pointer cycle covering
// the footprint (each word holds the absolute address of the next
// element).
func (p Params) dataTable() asm.Segment {
	seg := asm.Segment{Addr: dataBase, Size: uint64(p.Footprint)}
	if p.Chase > 0 || p.Pattern == Chase {
		seg.Fill = newChaseTable(newRNG(p.Name+"/data"), p.Footprint/8).fill
	} else {
		seg.Fill = newRandomTable(p.Name+"/data", p.Footprint/8).fill
	}
	return seg
}
