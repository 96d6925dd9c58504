// Package emu implements the functional (architectural) emulator for the
// ISA: a sparse 64-bit memory, architectural register state, single-step
// execution with full instruction semantics, and a pull-based dynamic
// instruction stream used to drive the timing models.
package emu

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fxa/internal/asm"
)

const pageBits = 12
const pageSize = 1 << pageBits

// lowKeys bounds the page keys resolved through the flat low-region page
// table: one pointer-array index instead of a map lookup. 1<<15 keys ×
// 4 KiB = 128 MiB, which covers the assembler/workload address-space
// conventions (code at 0x1000, data region ceiling 0x4000000) with room
// to spare; anything above falls back to the sparse map. The table itself
// is only as long as the pages in use need (Memory.low), not lowKeys.
const lowKeys = 1 << 15

// page is one 4 KiB unit of memory. Pages are shared between a Memory and
// its clones (copy-on-write): refs counts how many memories reference the
// page, and a write through any of them while refs > 1 first detaches a
// private copy. The data of a shared page is therefore immutable, which is
// what makes concurrent execution of clones safe.
type page struct {
	// refs is the number of memories referencing this page. Pages are
	// created with refs == 1; Clone increments, copy-on-write detach
	// decrements. Atomic because clones may execute on other goroutines.
	refs atomic.Int32
	// code marks that a predecode table has been built from this page
	// (see predecode.go); writes to such a page must fire the
	// code-write hook so stale predecoded instructions are dropped.
	// Atomic for the same reason as refs: a clone may consult the flag
	// while another machine sets it.
	code atomic.Bool
	data [pageSize]byte
}

func newPage() *page {
	p := new(page)
	p.refs.Store(1)
	return p
}

// Memory is a sparse, paged, little-endian byte-addressable memory.
// Reads of unwritten locations return zero, except inside a generated
// segment of the loaded image, whose pages are filled on first touch. A
// page wholly inside one generated segment serves its first few reads
// from the segment's Fill instead, and is filled when it is written or
// read more (readThrough).
//
// A Memory must only be accessed from one goroutine at a time, but
// independent clones may execute concurrently: cloned pages are shared
// copy-on-write with atomic reference counts, and a shared page's bytes
// are never mutated.
type Memory struct {
	// low is the flat page table of the hot region: key k below
	// len(low) resolves to low[k]. It is sized to the loaded image's last
	// page (sizeFor) and grows, never past lowKeys, when a page beyond it
	// is installed; an 8 MiB proxy needs 3,072 entries, not 32,768. high
	// is the sparse map for keys at or above lowKeys.
	low  []*page
	high map[uint64]*page

	// img holds the generated segments of the loaded program: a page
	// they cover is filled from it on first touch (fault). Immutable and
	// shared with every clone; nil when there are none.
	img *image
	// reads counts, for each low-region key, the reads served from the
	// image while the page stayed absent (readThrough). It is sized at
	// New like low, never grows, and is not cloned: a clone's absent
	// pages, and keys past its end, fault on first touch. lastLine is
	// the 64-byte line of the latest read-through plus one (0: none),
	// and rt its scratch bytes.
	reads    []uint8
	lastLine uint64
	rt       [16]byte
	// spare holds the pages of the latest chunk that fault has not yet
	// used, and chunks every chunk it took, for Release; a clone starts
	// without any.
	spare  []page
	chunks []*chunk
	// shared marks a memory that was cloned or is a clone: its pages may
	// be referenced by another memory, so Release recycles none of them.
	// released marks a memory Release has emptied; fault panics on it.
	shared, released bool

	// onCodeWrite, when non-nil, is invoked with the page key before a
	// write lands in a page whose code flag is set. The hook is
	// deliberately not copied by Clone: it closes over the owning
	// Machine's predecode state (see Machine.Clone).
	onCodeWrite func(key uint64)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// sizeFor sizes the empty page table of m to cover every page of p's
// image, so loading p and touching its pages never grows it, and, when
// p has generated segments (m.img), gives each key a read-through count.
func (m *Memory) sizeFor(p *asm.Program) {
	var end uint64
	for _, s := range p.Segments {
		end = max(end, s.Addr+s.Size+uint64(len(s.Data)))
	}
	m.low = make([]*page, min(lowKeys, (end+pageSize-1)>>pageBits))
	if m.img != nil {
		m.reads = make([]uint8, len(m.low))
	}
}

// image is the generated part of a program image (asm.Segment.Fill),
// sorted by address.
type image struct {
	segs []asm.Segment
}

// newImage collects the generated segments of p, or returns nil if it has
// none.
func newImage(p *asm.Program) *image {
	var img *image
	for _, s := range p.Segments {
		if s.Fill != nil {
			if img == nil {
				img = new(image)
			}
			img.segs = append(img.segs, s)
		}
	}
	return img
}

// covers reports whether any generated segment overlaps page key.
func (img *image) covers(key uint64) bool {
	if img == nil {
		return false
	}
	lo := key << pageBits
	for _, s := range img.segs {
		if s.Addr < lo+pageSize && lo < s.Addr+s.Size {
			return true
		}
	}
	return false
}

// fill writes the generated bytes of page key into dst. Bytes outside
// every generated segment are left untouched.
func (img *image) fill(key uint64, dst *[pageSize]byte) {
	if img == nil {
		return
	}
	lo := key << pageBits
	for _, s := range img.segs {
		if a, b := max(lo, s.Addr), min(lo+pageSize, s.Addr+s.Size); a < b {
			s.Fill(a-s.Addr, dst[a-lo:b-lo])
		}
	}
}

// wholeSeg returns the generated segment that covers all of page key, or
// nil.
func (img *image) wholeSeg(key uint64) *asm.Segment {
	lo := key << pageBits
	for i := range img.segs {
		if s := &img.segs[i]; s.Addr <= lo && lo+pageSize <= s.Addr+s.Size {
			return s
		}
	}
	return nil
}

// forEachKey calls fn for the key of every page a generated segment
// covers.
func (img *image) forEachKey(fn func(key uint64)) {
	if img == nil {
		return
	}
	for _, s := range img.segs {
		for key := s.Addr >> pageBits; key<<pageBits < s.Addr+s.Size; key++ {
			fn(key)
		}
	}
}

// chunk is the unit fault allocates pages in. The allocator would round
// one 4,104-byte page up to a 4,864-byte size class; 15 pages fill a
// 64 KiB span with 6% to spare, as one heap object instead of 15.
type chunk [15]page

// chunks recycles fault's chunks between memories: a memory gives its
// chunks back when its run ends (Release), and the next fault, in any
// memory on any goroutine, refills one instead of allocating it
// (DESIGN.md §8.13).
var chunks sync.Pool // *chunk

// fault is the one first-touch path for absent pages: when the image
// covers page key it fills a page, installs it and returns it. A page
// outside every generated segment is left absent, allocating nothing, and
// fault returns nil: it reads as zero. It panics on a released memory.
func (m *Memory) fault(key uint64) *page {
	if m.released {
		panic("emu: access to a released Memory")
	}
	if !m.img.covers(key) {
		return nil
	}
	if len(m.spare) == 0 {
		c, _ := chunks.Get().(*chunk)
		if c == nil {
			c = new(chunk)
		}
		m.chunks = append(m.chunks, c)
		m.spare = c[:]
	}
	p := &m.spare[0]
	m.spare = m.spare[1:]
	// A recycled page still holds another memory's flags and bytes; fill
	// overwrites only the bytes the image covers.
	p.refs.Store(1)
	p.code.Store(false)
	if m.img.wholeSeg(key) == nil {
		p.data = [pageSize]byte{}
	}
	m.img.fill(key, &p.data)
	m.install(key, p)
	return p
}

// Release ends the memory's life once its last user is done with it. A
// memory that was never cloned and is not a clone gives its chunks back
// for other memories' faults; a cloned one recycles nothing, since a
// clone may still share its pages. Either way it forgets every page, so a
// later access to it panics instead of refilling. Releasing twice is a
// no-op.
func (m *Memory) Release() {
	if !m.shared {
		for _, c := range m.chunks {
			chunks.Put(c)
		}
	}
	*m = Memory{released: true}
}

// readThroughs is how many reads an absent page wholly inside a generated
// segment serves from the image before a read makes it resident; a read of the
// same line (1<<lineBits bytes) as the latest read-through makes it
// resident at once (DESIGN.md §8.11).
const (
	readThroughs = 16
	lineBits     = 6
)

// readSlow returns the n bytes (n = 1, 4 or 8) at addr, all within one
// page, little-endian in the low bytes. An absent page is read through
// when it may be, else faulted in.
func (m *Memory) readSlow(addr, n uint64) uint64 {
	key := addr >> pageBits
	p := m.lookup(key)
	if p == nil {
		if v, ok := m.readThrough(key, addr, n); ok {
			return v
		}
		if p = m.fault(key); p == nil {
			return 0
		}
	}
	off := addr & (pageSize - 1)
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(p.data[off : off+8])
	case 4:
		return uint64(binary.LittleEndian.Uint32(p.data[off : off+4]))
	}
	return uint64(p.data[off])
}

// readThrough serves the n bytes at addr of absent page key from the
// image without making the page resident, when the page lies wholly in a
// generated segment, has served fewer than readThroughs reads, and addr
// is not on the line the latest read-through served (the second read of a
// stream). ok is false when the caller must fault the page in instead.
func (m *Memory) readThrough(key, addr, n uint64) (v uint64, ok bool) {
	if key >= uint64(len(m.reads)) || m.reads[key] >= readThroughs {
		return 0, false
	}
	line := addr>>lineBits + 1
	if line == m.lastLine {
		return 0, false
	}
	s := m.img.wholeSeg(key)
	if s == nil {
		m.reads[key] = readThroughs // never asks again
		return 0, false
	}
	m.reads[key]++
	m.lastLine = line
	// Fill whole 8-byte words (at most two), the grain a table of words
	// serves without a scratch buffer of its own.
	lo := addr &^ 7
	s.Fill(lo-s.Addr, m.rt[:(addr+n-lo+7)&^7])
	return binary.LittleEndian.Uint64(m.rt[addr-lo:]) & (^uint64(0) >> (64 - 8*n)), true
}

// lookup returns the resident page for key, or nil. A key between
// len(low) and lowKeys misses in high, which holds no such key.
func (m *Memory) lookup(key uint64) *page {
	if key < uint64(len(m.low)) {
		return m.low[key]
	}
	return m.high[key]
}

// install makes p the resident page for key, growing the low page table
// to reach key (at least doubling it) when key is below lowKeys.
func (m *Memory) install(key uint64, p *page) {
	if key < lowKeys {
		if key >= uint64(len(m.low)) {
			low := make([]*page, min(lowKeys, max(key+1, 2*uint64(len(m.low)))))
			copy(low, m.low)
			m.low = low
		}
		m.low[key] = p
		return
	}
	if m.high == nil {
		m.high = make(map[uint64]*page)
	}
	m.high[key] = p
}

// wpage resolves a writable (private) page containing addr, creating or
// copy-on-write-detaching it as needed. The fast path requires the page
// to be resident, unshared and free of predecoded code; everything else
// goes through wpageSlow.
func (m *Memory) wpage(addr uint64) *page {
	key := addr >> pageBits
	if low := m.low; key < uint64(len(low)) {
		if p := low[key]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
			return p
		}
	}
	return m.wpageSlow(key)
}

func (m *Memory) wpageSlow(key uint64) *page {
	p := m.lookup(key)
	switch {
	case p == nil:
		p = m.create(key)
	case p.refs.Load() > 1:
		// Copy on write: detach a private copy. The shared original is
		// only ever read while shared, so copying its bytes races with
		// nothing; the atomic decrement publishes the detach.
		np := newPage()
		np.data = p.data
		np.code.Store(p.code.Load())
		p.refs.Add(-1)
		m.install(key, np)
		p = np
	}
	if p.code.Load() {
		// The page holds (or held) predecoded instructions: let the
		// owning machine drop them, then clear the flag — the table is
		// gone, so further writes need no hook until the page is
		// predecoded again.
		if m.onCodeWrite != nil {
			m.onCodeWrite(key)
		}
		p.code.Store(false)
	}
	return p
}

// create makes absent page key resident: its generated bytes when the
// image covers it, zeroes otherwise.
func (m *Memory) create(key uint64) *page {
	if p := m.fault(key); p != nil {
		return p
	}
	p := newPage()
	m.install(key, p)
	return p
}

// codePage returns the bytes of page key for predecoding, creating the
// page if absent, and marks it so that any later write through this or a
// cloned memory fires the code-write hook. The caller must treat the
// returned array as read-only.
func (m *Memory) codePage(key uint64) *[pageSize]byte {
	p := m.lookup(key)
	if p == nil {
		p = m.create(key)
	}
	p.code.Store(true)
	return &p.data
}

// setCodeWriteHook registers fn to be called with the page key whenever a
// write touches a page holding predecoded code. Used by Machine to keep
// its predecode tables coherent with self-modifying code.
func (m *Memory) setCodeWriteHook(fn func(key uint64)) {
	m.onCodeWrite = fn
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	if key, low := addr>>pageBits, m.low; key < uint64(len(low)) {
		if p := low[key]; p != nil {
			return p.data[addr&(pageSize-1)]
		}
	}
	return m.load8Slow(addr)
}

func (m *Memory) load8Slow(addr uint64) byte { return byte(m.readSlow(addr, 1)) }

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.wpage(addr).data[addr&(pageSize-1)] = b
}

// Read64 loads the 8-byte little-endian value at addr. The access may
// straddle a page boundary.
func (m *Memory) Read64(addr uint64) uint64 {
	if key, low := addr>>pageBits, m.low; key < uint64(len(low)) && addr&(pageSize-1) <= pageSize-8 {
		if p := low[key]; p != nil {
			off := addr & (pageSize - 1)
			return binary.LittleEndian.Uint64(p.data[off : off+8])
		}
	}
	return m.read64Slow(addr)
}

func (m *Memory) read64Slow(addr uint64) uint64 {
	if addr&(pageSize-1) <= pageSize-8 {
		return m.readSlow(addr, 8)
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Load8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores the 8-byte little-endian value v at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.wpage(addr).data[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Store8(addr+i, byte(v>>(8*i)))
	}
}

// Read16 loads the 2-byte little-endian value at addr.
func (m *Memory) Read16(addr uint64) uint16 {
	return uint16(m.Load8(addr)) | uint16(m.Load8(addr+1))<<8
}

// Write16 stores the 2-byte little-endian value v at addr.
func (m *Memory) Write16(addr uint64, v uint16) {
	m.Store8(addr, byte(v))
	m.Store8(addr+1, byte(v>>8))
}

// Write32 stores the 4-byte little-endian value v at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.wpage(addr).data[off:off+4], v)
		return
	}
	for i := uint64(0); i < 4; i++ {
		m.Store8(addr+i, byte(v>>(8*i)))
	}
}

// Read32 loads the 4-byte little-endian value at addr (used for
// instruction fetch).
func (m *Memory) Read32(addr uint64) uint32 {
	if addr&(pageSize-1) <= pageSize-4 {
		return uint32(m.readSlow(addr, 4))
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Load8(addr+i)) << (8 * i)
	}
	return v
}

// WriteBytes copies data into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		off := addr & (pageSize - 1)
		n := copy(m.wpage(addr).data[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// forEachPage calls fn for every resident page in ascending key order.
func (m *Memory) forEachPage(fn func(key uint64, p *page)) {
	for key, p := range m.low {
		if p != nil {
			fn(uint64(key), p)
		}
	}
	if len(m.high) > 0 {
		keys := make([]uint64, 0, len(m.high))
		for k := range m.high {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fn(k, m.high[k])
		}
	}
}

// Footprint returns the number of resident pages (for tests/statistics).
func (m *Memory) Footprint() int {
	n := len(m.high)
	for _, p := range m.low {
		if p != nil {
			n++
		}
	}
	return n
}

// SharedPages returns how many resident pages are currently shared with
// at least one other memory (copy-on-write, for tests/statistics).
func (m *Memory) SharedPages() int {
	n := 0
	m.forEachPage(func(_ uint64, p *page) {
		if p.refs.Load() > 1 {
			n++
		}
	})
	return n
}

// Diff compares two memories byte-for-byte and returns the address of the
// first differing byte (lowest address). Every page compares as a read
// sees it: a resident page by its bytes, an unmaterialised generated page
// by the bytes its image would fill (rendered without making it
// resident), and any other absent page as zeroes, so an all-zero resident
// page equals an absent one.
func (m *Memory) Diff(o *Memory) (addr uint64, differs bool) {
	seen := make(map[uint64]bool)
	keys := make([]uint64, 0, 64)
	collect := func(key uint64) {
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	resident := func(key uint64, _ *page) { collect(key) }
	m.forEachPage(resident)
	o.forEachPage(resident)
	if m.img != o.img {
		// A page absent from both memories is equal by construction
		// only when both fill it from the same image.
		m.img.forEachKey(collect)
		o.img.forEachKey(collect)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var bufA, bufB [pageSize]byte
	for _, k := range keys {
		a, b := m.view(k, &bufA), o.view(k, &bufB)
		if *a == *b {
			continue
		}
		for i := 0; i < pageSize; i++ {
			if a[i] != b[i] {
				return k<<pageBits + uint64(i), true
			}
		}
	}
	return 0, false
}

// view returns the contents of page key as a read sees them: the resident
// page, or else its generated bytes (zeroes outside the image) rendered
// into buf without making the page resident.
func (m *Memory) view(key uint64, buf *[pageSize]byte) *[pageSize]byte {
	if p := m.lookup(key); p != nil {
		return &p.data
	}
	*buf = [pageSize]byte{}
	m.img.fill(key, buf)
	return buf
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(o *Memory) bool {
	_, differs := m.Diff(o)
	return !differs
}

// Clone returns an independent copy-on-write snapshot: the clone shares
// every resident page with the original, and a page is copied only when
// either side first writes to it. The cost is one copy of the page table,
// which is only as long as the pages in use need, instead of a
// page-by-page byte copy. Writes to the clone never affect the original
// (and vice versa), and the two may execute on different goroutines.
// Pages of the generated image that neither side has touched stay
// unmaterialised: the clone shares the image, and each side faults such a
// page into its own table on first touch. Both sides are marked shared,
// so neither recycles its pages on Release. The code-write hook is
// deliberately not inherited; the cloning Machine installs its own.
func (m *Memory) Clone() *Memory {
	m.shared = true
	c := &Memory{low: slices.Clone(m.low), img: m.img, shared: true}
	for _, p := range c.low {
		if p != nil {
			p.refs.Add(1)
		}
	}
	if len(m.high) > 0 {
		c.high = make(map[uint64]*page, len(m.high))
		for k, p := range m.high {
			p.refs.Add(1)
			c.high[k] = p
		}
	}
	return c
}
