// Package mem models the memory hierarchy of Table I: split L1
// instruction/data caches, a unified L2, and a fixed-latency main memory.
// Caches are set-associative with true-LRU replacement and write-back,
// write-allocate policy. The model is a latency/event model: each access
// returns the total latency it would observe, and per-level hit/miss/
// writeback counters feed the energy model.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Replacement selects the victim-choice policy of a cache.
type Replacement int

const (
	// LRU is true least-recently-used (the Table I assumption).
	LRU Replacement = iota
	// RandomRepl picks a pseudo-random way (cheap hardware baseline).
	RandomRepl
	// NRU is not-recently-used: one reference bit per line, cleared per
	// set when all are set (a common LRU approximation).
	NRU
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case RandomRepl:
		return "random"
	case NRU:
		return "nru"
	default:
		return "lru"
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int // cycles, inclusive of tag+data access
	// Replace selects the replacement policy (default LRU).
	Replace Replacement
	// WriteThrough, when set, propagates every write to the next level
	// immediately instead of marking lines dirty (no writebacks).
	WriteThrough bool
}

// Validate checks structural parameters.
func (c *CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a positive power of two", c.Name, sets)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("mem: %s: non-positive hit latency", c.Name)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c *CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// CacheStats counts cache events for IPC reporting and the energy model.
type CacheStats struct {
	Reads      uint64
	Writes     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Writebacks uint64
	Prefetches uint64 // prefetch fills issued into this cache
}

// Accesses returns total reads+writes.
func (s *CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s *CacheStats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// Sub returns the field-wise difference s − other. Counters are
// monotonic within a run, so subtracting an earlier snapshot of the same
// cache never underflows; the engine's interval collector uses this to
// turn cumulative snapshots into per-interval deltas.
func (s CacheStats) Sub(other CacheStats) CacheStats {
	return CacheStats{
		Reads:      s.Reads - other.Reads,
		Writes:     s.Writes - other.Writes,
		ReadMiss:   s.ReadMiss - other.ReadMiss,
		WriteMiss:  s.WriteMiss - other.WriteMiss,
		Writebacks: s.Writebacks - other.Writebacks,
		Prefetches: s.Prefetches - other.Prefetches,
	}
}

// MissRate returns misses/accesses, or 0 when idle.
func (s *CacheStats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// line is one cache line's state: 24 bytes, the flags packed after the
// two words.
type line struct {
	tag   uint64
	used  uint64 // LRU timestamp
	valid bool
	dirty bool
	ref   bool // NRU reference bit
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg CacheConfig
	// lines holds every set's ways in one array: set s is
	// lines[s*ways : (s+1)*ways].
	lines    []line
	ways     uint64
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	next     Level
	Stats    CacheStats
}

// Level is anything that can service a cache fill: another Cache or the
// main memory.
type Level interface {
	// Access performs a read (write=false) or write (write=true) of the
	// line containing addr and returns its latency in cycles.
	Access(addr uint64, write bool) int
}

// NewCache builds a cache backed by next. It panics on an invalid config
// (configs are static, from Table I).
func NewCache(cfg CacheConfig, next Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		next:     next,
		lines:    newLines(sets * cfg.Ways),
		ways:     uint64(cfg.Ways),
		setMask:  uint64(sets - 1),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
}

// linePools recycles line arrays between caches, one pool of *[]line per
// array length: a hierarchy gives its arrays back when its run ends
// (Hierarchy.Release), and the next cache of that geometry, on any
// goroutine, clears one instead of allocating it (DESIGN.md §8.13).
var (
	linePoolsMu sync.Mutex
	linePools   = make(map[int]*sync.Pool)
)

func linePool(n int) *sync.Pool {
	linePoolsMu.Lock()
	defer linePoolsMu.Unlock()
	p := linePools[n]
	if p == nil {
		p = new(sync.Pool)
		linePools[n] = p
	}
	return p
}

// newLines returns n invalid lines: a recycled array cleared, or a new
// one.
func newLines(n int) []line {
	if b, ok := linePool(n).Get().(*[]line); ok {
		clear(*b)
		return *b
	}
	return make([]line, n)
}

// release gives c's lines back and leaves it with none, so a later Access
// or Probe panics instead of reading another cache's state.
func (c *Cache) release() {
	if lines := c.lines; lines != nil {
		c.lines = nil
		linePool(len(lines)).Put(&lines)
	}
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up the line containing addr, filling from the next level on
// a miss, and returns the total access latency.
func (c *Cache) Access(addr uint64, write bool) int {
	c.tick++
	blk := addr >> c.lineBits
	set := c.set(blk & c.setMask)
	tag := blk >> c.setBits
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	// Hit?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.tick
			set[i].ref = true
			if write {
				if c.cfg.WriteThrough {
					c.Stats.Writebacks++
					c.next.Access(addr, true)
				} else {
					set[i].dirty = true
				}
			}
			return c.cfg.HitLatency
		}
	}
	// Miss: fill from below.
	if write {
		c.Stats.WriteMiss++
	} else {
		c.Stats.ReadMiss++
	}
	lat := c.cfg.HitLatency + c.next.Access(addr, false)
	v := c.victim(set)
	if set[v].valid && set[v].dirty {
		c.Stats.Writebacks++
		// Write-back latency is off the critical path (buffered); count
		// the event only.
		c.next.Access(reconstruct(set[v].tag, blk&c.setMask, c.lineBits, c.setBits), true)
	}
	dirty := write && !c.cfg.WriteThrough
	if write && c.cfg.WriteThrough {
		c.Stats.Writebacks++
		c.next.Access(addr, true)
	}
	set[v] = line{tag: tag, valid: true, dirty: dirty, used: c.tick, ref: true}
	return lat
}

// victim picks the way to replace under the configured policy. Invalid
// ways are always preferred.
func (c *Cache) victim(set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch c.cfg.Replace {
	case RandomRepl:
		// xorshift on the access tick: stateless pseudo-randomness.
		x := c.tick
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(len(set)))
	case NRU:
		for i := range set {
			if !set[i].ref {
				return i
			}
		}
		// All referenced: clear the bits (aging) and take way 0.
		for i := range set {
			set[i].ref = false
		}
		return 0
	default: // LRU
		v := 0
		for i := range set {
			if set[i].used < set[v].used {
				v = i
			}
		}
		return v
	}
}

// Prefetch fills the line containing addr without charging latency (the
// fill happens off the demand path). Counted separately for the energy
// model. A line already present is left untouched.
func (c *Cache) Prefetch(addr uint64) {
	if c.Probe(addr) {
		return
	}
	c.Stats.Prefetches++
	c.Access(addr, false)
	// Undo the demand-read accounting double-count: the Access above
	// recorded a read and a read miss that were not demand events.
	c.Stats.Reads--
	c.Stats.ReadMiss--
}

// Probe reports whether addr currently hits, without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	blk := addr >> c.lineBits
	set := c.set(blk & c.setMask)
	tag := blk >> c.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func reconstruct(tag, setIdx uint64, lineBits, setBits uint) uint64 {
	return (tag<<setBits | setIdx) << lineBits
}

// MainMemory is the fixed-latency DRAM model.
type MainMemory struct {
	Latency  int
	Accesses uint64
}

// Access returns the DRAM latency and counts the access.
func (m *MainMemory) Access(addr uint64, write bool) int {
	m.Accesses++
	return m.Latency
}

// Hierarchy bundles the full Table I memory system, including a simple
// degree-2 next-line stream prefetcher on the data side (Cortex-A53/A57
// class cores prefetch ascending streams; without it every streaming
// workload degenerates into serialized DRAM misses).
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	DRAM *MainMemory

	// pfStreams holds the last line touched by recently observed access
	// streams; an access to the successor of a tracked line confirms the
	// stream and prefetches ahead.
	pfStreams [4]uint64
	pfNext    int
}

// HierarchyConfig holds the geometry of the whole memory system.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	DRAMLatency  int
}

// DefaultHierarchyConfig returns the Table I memory system: 48 KB 12-way
// L1I (2 cycles), 32 KB 8-way L1D (2 cycles), 512 KB 8-way L2 (12 cycles),
// all 64 B lines, 200-cycle main memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{Name: "L1I", SizeBytes: 48 << 10, Ways: 12, LineBytes: 64, HitLatency: 2},
		L1D:         CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, HitLatency: 2},
		L2:          CacheConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, LineBytes: 64, HitLatency: 12},
		DRAMLatency: 200,
	}
}

// NewHierarchy builds the memory system from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	dram := &MainMemory{Latency: cfg.DRAMLatency}
	l2 := NewCache(cfg.L2, dram)
	return &Hierarchy{
		L1I:  NewCache(cfg.L1I, l2),
		L1D:  NewCache(cfg.L1D, l2),
		L2:   l2,
		DRAM: dram,
	}
}

// Release gives the hierarchy's line arrays to the next hierarchy built,
// once its run is over. Stats stay readable; any later access panics.
// Releasing twice is a no-op.
func (h *Hierarchy) Release() {
	h.L1I.release()
	h.L1D.release()
	h.L2.release()
}

// InstFetch performs an instruction fetch of the line containing pc and
// returns its latency.
func (h *Hierarchy) InstFetch(pc uint64) int { return h.L1I.Access(pc, false) }

// DataRead performs a data load and returns its latency.
func (h *Hierarchy) DataRead(addr uint64) int {
	lat := h.L1D.Access(addr, false)
	h.streamPrefetch(addr)
	return lat
}

// DataWrite performs a data store and returns its latency.
func (h *Hierarchy) DataWrite(addr uint64) int {
	lat := h.L1D.Access(addr, true)
	h.streamPrefetch(addr)
	return lat
}

// pfDegree is how many lines ahead the stream prefetcher runs once a
// stream is confirmed.
const pfDegree = 2

// streamPrefetch tracks up to four concurrent ascending streams and
// prefetches pfDegree lines ahead on a confirmed stream access.
func (h *Hierarchy) streamPrefetch(addr uint64) {
	line := addr >> 6
	for i := range h.pfStreams {
		last := h.pfStreams[i]
		if last != 0 && (line == last || line == last+1) {
			if line == last+1 {
				for d := uint64(1); d <= pfDegree; d++ {
					h.L1D.Prefetch((line + d) << 6)
				}
			}
			h.pfStreams[i] = line
			return
		}
	}
	h.pfStreams[h.pfNext] = line
	h.pfNext = (h.pfNext + 1) % len(h.pfStreams)
}
