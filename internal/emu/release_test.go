package emu

import "testing"

// Released memories (DESIGN.md §8.13): Release gives a never-cloned
// memory's page chunks to later faults, and the memory itself panics on
// any access that misses a resident page.

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released memory did not panic", what)
		}
	}()
	fn()
}

func TestReleasedMemoryPanics(t *testing.T) {
	m, _ := withTableMachine(t)
	m.Mem.Write64(tableAddr, 1)
	m.Mem.Release()
	m.Mem.Release() // a second Release is a no-op
	mustPanic(t, "a read of an absent generated page", func() { m.Mem.Read64(tableAddr + pageSize) })
	mustPanic(t, "a read of a once-resident page", func() { m.Mem.Read64(tableAddr) })
	mustPanic(t, "a read outside the image", func() { m.Mem.Load8(0x7000_0000) })
	mustPanic(t, "a write", func() { m.Mem.Write64(tableAddr, 2) })
}

// TestReleaseOfSharedMemoryRecyclesNothing: releasing either side of a
// clone gives back no chunk, so the other side's pages survive faults in
// other memories, which would refill any chunk given back.
func TestReleaseOfSharedMemoryRecyclesNothing(t *testing.T) {
	lazyProg, eagerProg := fuzzImage()
	for _, released := range []string{"original", "clone"} {
		orig, eager := New(lazyProg).Mem, New(eagerProg).Mem
		for a := uint64(fuzzGenBase); a < fuzzLitBase; a += pageSize {
			orig.Write64(a, a)
			eager.Write64(a, a)
		}
		clone := orig.Clone()
		gone, kept := orig, clone
		if released == "clone" {
			gone, kept = clone, orig
		}
		gone.Release()
		for i := range 4 {
			m := New(lazyProg).Mem
			for a := uint64(fuzzGenBase); a < fuzzLitBase; a += pageSize {
				m.Write64(a, ^a+uint64(i))
			}
			m.Release()
		}
		if addr, differs := kept.Diff(eager); differs {
			t.Errorf("releasing the %s: the other side differs from its eager twin at %#x", released, addr)
		}
	}
}
