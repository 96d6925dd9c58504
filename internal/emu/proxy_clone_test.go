package emu_test

import (
	"runtime"
	"sync"
	"testing"

	"fxa/internal/emu"
	"fxa/internal/workload"
)

// TestProxyClonesFaultConcurrently runs clones of a freshly loaded proxy,
// its tables entirely unmaterialised, on separate goroutines: each faults
// the proxy's generated pages through the workload's shared Fill
// functions (a random table and a pointer-chase table). Every clone must
// end in the state a serial run reaches; under -race this also covers the
// generators' shared state.
func TestProxyClonesFaultConcurrently(t *testing.T) {
	const insts = 30_000
	for _, name := range []string{"gcc", "mcf"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog := w.MustBuild()
		ref := emu.New(prog)
		if _, err := ref.Run(insts); err != nil {
			t.Fatal(err)
		}
		m := emu.New(prog)
		cs := make([]*emu.Machine, 4)
		for i := range cs {
			cs[i] = m.Clone()
		}
		var wg sync.WaitGroup
		errs := make([]error, len(cs))
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *emu.Machine) {
				defer wg.Done()
				_, errs[i] = c.Run(insts)
			}(i, c)
		}
		wg.Wait()
		for i, c := range cs {
			if errs[i] != nil {
				t.Fatalf("%s clone %d: %v", name, i, errs[i])
			}
			if c.R != ref.R || c.PC != ref.PC || !c.Mem.Equal(ref.Mem) {
				t.Fatalf("%s clone %d diverged from the serial run", name, i)
			}
		}
	}
}

// TestProxyClonesTraceConcurrently traces clones of one freshly loaded
// proxy through NextBatch on separate goroutines, each clone faulting
// the shared image's pages and building its own predecode map. Every
// clone's records and final state must match a serial Next trace; run it
// under `go test -race -count=10` after touching the trace loop.
func TestProxyClonesTraceConcurrently(t *testing.T) {
	const insts = 30_000
	for _, name := range []string{"gcc", "mcf"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog := w.MustBuild()
		ref := emu.New(prog)
		rs := emu.NewStream(ref, insts)
		var want []emu.Record
		for r, ok := rs.Next(); ok; r, ok = rs.Next() {
			want = append(want, r)
		}
		m := emu.New(prog)
		cs := make([]*emu.Machine, 4)
		for i := range cs {
			cs[i] = m.Clone()
		}
		got := make([][]emu.Record, len(cs))
		errs := make([]error, len(cs))
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *emu.Machine) {
				defer wg.Done()
				s := emu.NewStream(c, insts)
				buf := make([]emu.Record, 64)
				for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
					got[i] = append(got[i], buf[:n]...)
				}
				errs[i] = s.Err()
			}(i, c)
		}
		wg.Wait()
		for i, c := range cs {
			if errs[i] != nil {
				t.Fatalf("%s clone %d: %v", name, i, errs[i])
			}
			if len(got[i]) != len(want) {
				t.Fatalf("%s clone %d: %d records, want %d", name, i, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("%s clone %d: record %d = %+v, want %+v", name, i, j, got[i][j], want[j])
				}
			}
			if c.R != ref.R || c.PC != ref.PC || c.InstCount != ref.InstCount || !c.Mem.Equal(ref.Mem) {
				t.Fatalf("%s clone %d diverged from the serial trace", name, i)
			}
		}
	}
}

// heapBytes returns the bytes fn allocates on the heap.
func heapBytes(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProxyPageTableSizedToImage checks that loading a proxy allocates a
// page table for the pages its image spans, not for the whole low region:
// New of mcf, whose 8 MiB data table ends at 12 MiB (3,072 page keys, a
// 24 KiB table), and a Clone of it each allocate under 64 KiB before any
// data page is touched. A table of all 32,768 low keys is 256 KiB.
func TestProxyPageTableSizedToImage(t *testing.T) {
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	prog := w.MustBuild()
	var m, c *emu.Machine
	newBytes := heapBytes(func() { m = emu.New(prog) })
	cloneBytes := heapBytes(func() { c = m.Clone() })
	t.Logf("mcf: emu.New allocated %d bytes, Clone %d", newBytes, cloneBytes)
	if newBytes >= 64<<10 {
		t.Errorf("emu.New of mcf allocated %d bytes, want under 64 KiB", newBytes)
	}
	if cloneBytes >= 64<<10 {
		t.Errorf("Clone of a loaded mcf allocated %d bytes, want under 64 KiB", cloneBytes)
	}
	if _, err := c.Run(10_000); err != nil {
		t.Fatal(err)
	}
}
