package mem

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func small(next Level) *Cache {
	return NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 2}, next)
}

func TestConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "x", SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 8 {
		t.Errorf("sets = %d, want 8", good.Sets())
	}
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, Ways: 2, LineBytes: 64, HitLatency: 1},
		{Name: "b", SizeBytes: 1024, Ways: 2, LineBytes: 63, HitLatency: 1},
		{Name: "c", SizeBytes: 1000, Ways: 2, LineBytes: 64, HitLatency: 1}, // sets not power of 2
		{Name: "d", SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s should be invalid", c.Name)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	dram := &MainMemory{Latency: 100}
	c := small(dram)
	if lat := c.Access(0x1000, false); lat != 102 {
		t.Errorf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(0x1008, false); lat != 2 {
		t.Errorf("same-line hit latency = %d, want 2", lat)
	}
	if c.Stats.ReadMiss != 1 || c.Stats.Reads != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if !c.Probe(0x1000) || c.Probe(0x2000) {
		t.Error("probe wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	dram := &MainMemory{Latency: 100}
	c := small(dram) // 8 sets, 2 ways; addresses 64*8=512 apart map to the same set
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) || !c.Probe(d) {
		t.Error("a and d must be resident")
	}
	if c.Probe(b) {
		t.Error("b must have been evicted")
	}
}

func TestWritebackDirty(t *testing.T) {
	dram := &MainMemory{Latency: 100}
	c := small(dram)
	c.Access(0x0000, true) // dirty
	c.Access(0x0200, false)
	c.Access(0x0400, false) // evicts 0x0000 (dirty) -> writeback
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Clean evictions must not write back.
	c.Access(0x0600, false) // evicts 0x0200 (clean)
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want still 1", c.Stats.Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold data read: L1D(2) + L2(12) + DRAM(200).
	if lat := h.DataRead(0x8000); lat != 214 {
		t.Errorf("cold read = %d, want 214", lat)
	}
	// L1 hit.
	if lat := h.DataRead(0x8000); lat != 2 {
		t.Errorf("hit = %d, want 2", lat)
	}
	// L2 hit after L1 eviction would be 2+12; simulate by touching a
	// different line mapping to the same L2 line? Instead, instruction
	// fetch of the same address misses L1I but hits L2.
	if lat := h.InstFetch(0x8000); lat != 14 {
		t.Errorf("L2 hit fetch = %d, want 14", lat)
	}
	if h.DRAM.Accesses != 1 {
		t.Errorf("DRAM accesses = %d, want 1", h.DRAM.Accesses)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := CacheStats{Reads: 8, Writes: 2, ReadMiss: 1, WriteMiss: 1}
	if s.Accesses() != 10 || s.Misses() != 2 {
		t.Errorf("accesses/misses = %d/%d", s.Accesses(), s.Misses())
	}
	if s.MissRate() != 0.2 {
		t.Errorf("miss rate = %v, want 0.2", s.MissRate())
	}
	var zero CacheStats
	if zero.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
}

// Property: after accessing an address, it always hits until at least
// Ways distinct conflicting lines are accessed.
func TestConflictProperty(t *testing.T) {
	f := func(addr uint64, nConflicts uint8) bool {
		addr &= 0xfffff
		dram := &MainMemory{Latency: 100}
		c := small(dram)
		c.Access(addr, false)
		n := int(nConflicts % 2) // fewer than Ways(2) conflicts
		for i := 1; i <= n; i++ {
			c.Access(addr+uint64(i)*512, false) // same set, different tag
		}
		return c.Probe(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: latency is always >= hit latency and every access is counted.
func TestLatencyAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		dram := &MainMemory{Latency: 50}
		c := small(dram)
		for _, a := range addrs {
			if lat := c.Access(uint64(a), a%2 == 0); lat < 2 {
				return false
			}
		}
		return c.Stats.Accesses() == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReplacementPolicies(t *testing.T) {
	mk := func(r Replacement) *Cache {
		dram := &MainMemory{Latency: 100}
		return NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64,
			HitLatency: 2, Replace: r}, dram)
	}
	for _, r := range []Replacement{LRU, RandomRepl, NRU} {
		c := mk(r)
		// Fill both ways of set 0, then conflict: exactly one of a,b is
		// evicted regardless of policy.
		c.Access(0x0000, false)
		c.Access(0x0200, false)
		c.Access(0x0400, false)
		resident := 0
		for _, a := range []uint64{0x0000, 0x0200, 0x0400} {
			if c.Probe(a) {
				resident++
			}
		}
		if resident != 2 {
			t.Errorf("%v: %d lines resident, want 2", r, resident)
		}
	}
	if LRU.String() != "lru" || RandomRepl.String() != "random" || NRU.String() != "nru" {
		t.Error("policy names wrong")
	}
}

func TestNRUPrefersUnreferenced(t *testing.T) {
	dram := &MainMemory{Latency: 100}
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 2048, Ways: 4, LineBytes: 64,
		HitLatency: 2, Replace: NRU}, dram)
	// Fill 4 ways of set 0 (addresses 64*8=512 apart).
	for i := uint64(0); i < 4; i++ {
		c.Access(i*512, false)
	}
	// All ref bits set; a conflicting access ages the set and evicts
	// way 0.
	c.Access(4*512, false)
	if c.Probe(0) {
		t.Error("NRU aging should have evicted way 0")
	}
	if !c.Probe(4 * 512) {
		t.Error("new line must be resident")
	}
}

func TestWriteThrough(t *testing.T) {
	dram := &MainMemory{Latency: 100}
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64,
		HitLatency: 2, WriteThrough: true}, dram)
	c.Access(0x0000, true) // miss + write-through
	c.Access(0x0000, true) // hit + write-through
	if c.Stats.Writebacks != 2 {
		t.Errorf("write-through propagations = %d, want 2", c.Stats.Writebacks)
	}
	// Evicting the line must NOT write back again (never dirty).
	before := c.Stats.Writebacks
	c.Access(0x0200, false)
	c.Access(0x0400, false)
	c.Access(0x0600, false)
	if c.Stats.Writebacks != before {
		t.Errorf("write-through cache wrote back on eviction")
	}
}

// TestHierarchyAllocation pins the cache arrays' layout: a line is 24
// bytes and each cache is one flat array of them, so the Table I
// hierarchy (9,472 lines) allocates at most 240 KiB. Lines of 32 bytes
// and a slice header per set would take about 330 KiB.
func TestHierarchyAllocation(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 24 {
		t.Errorf("a cache line takes %d bytes, want 24", n)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHierarchy(DefaultHierarchyConfig())
	runtime.ReadMemStats(&after)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewHierarchy allocated %d bytes", n)
	if n > 240<<10 {
		t.Errorf("NewHierarchy allocated %d bytes, want at most 240 KiB", n)
	}
	if lat := h.DataRead(0x1000); lat != 2+12+200 {
		t.Errorf("cold data read took %d cycles, want %d", lat, 2+12+200)
	}
}

// accessStream drives h with a seeded mix of instruction fetches, loads
// and stores (ascending streams included, so the prefetcher runs) and
// returns every latency and the final stats of the three caches.
func accessStream(h *Hierarchy, seed int64) ([]int, [3]CacheStats) {
	r := rand.New(rand.NewSource(seed))
	lat := make([]int, 0, 20_000)
	stream := uint64(0x80_0000)
	for range cap(lat) {
		switch addr := uint64(r.Intn(1<<20)) &^ 7; r.Intn(4) {
		case 0:
			lat = append(lat, h.InstFetch(0x1000+addr%(64<<10)))
		case 1:
			lat = append(lat, h.DataRead(addr))
		case 2:
			lat = append(lat, h.DataWrite(addr))
		default:
			stream += 8
			lat = append(lat, h.DataRead(stream))
		}
	}
	return lat, [3]CacheStats{h.L1I.Stats, h.L1D.Stats, h.L2.Stats}
}

// TestRecycledHierarchyMatchesFresh: a hierarchy built on line arrays that
// another run filled (valid, dirty and referenced lines with later LRU
// stamps) gives the same latency sequence and stats as one built on new
// arrays.
func TestRecycledHierarchyMatchesFresh(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	fresh := NewHierarchy(cfg)
	for _, c := range []*Cache{fresh.L1I, fresh.L1D, fresh.L2} {
		c.lines = make([]line, len(c.lines))
	}
	wantLat, wantStats := accessStream(fresh, 1)
	// The pool may hand back an array this test did not fill (or none:
	// sync.Pool drops items under the race detector), so fill and release
	// until the L2 array comes back.
	for range 20 {
		used := NewHierarchy(cfg)
		accessStream(used, 1)
		l2 := &used.L2.lines[0]
		used.Release()
		h := NewHierarchy(cfg)
		if &h.L2.lines[0] != l2 {
			h.Release()
			continue
		}
		lat, stats := accessStream(h, 1)
		if stats != wantStats {
			t.Errorf("recycled hierarchy's stats %+v, fresh %+v", stats, wantStats)
		}
		for i := range lat {
			if lat[i] != wantLat[i] {
				t.Fatalf("access %d: recycled hierarchy took %d cycles, fresh %d", i, lat[i], wantLat[i])
			}
		}
		return
	}
	t.Fatal("a released L2 array never came back from the pool")
}

func TestReleasedHierarchyPanics(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.DataRead(0x1000)
	h.Release()
	h.Release() // a second Release is a no-op
	if h.L1D.Stats.Reads != 1 {
		t.Errorf("released L1D reports %d reads, want 1", h.L1D.Stats.Reads)
	}
	for name, access := range map[string]func(){
		"Access": func() { h.DataRead(0x1000) },
		"Probe":  func() { h.L2.Probe(0x1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released hierarchy did not panic", name)
				}
			}()
			access()
		}()
	}
}
