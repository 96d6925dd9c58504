package engine_test

import (
	"context"
	"runtime"
	"testing"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	_ "fxa/internal/inorder"
	"fxa/internal/workload"
)

// driveAllocs runs model on the named proxy for insts instructions and
// returns the heap objects engine.Drive allocated. The image's pages are
// made resident first by storing each page's first byte back (a read
// alone may be served from the generator and leave the page absent), so
// first-touch page generation is not counted.
func driveAllocs(t *testing.T, model config.Model, name string, insts uint64) uint64 {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog := w.MustBuild()
	m := emu.New(prog)
	for _, s := range prog.Segments {
		for off := uint64(0); off < s.Size; off += 4096 {
			a := s.Addr + off
			m.Mem.Store8(a, m.Mem.Load8(a))
		}
	}
	e, err := engine.New(model, emu.NewStream(m, insts))
	if err != nil {
		t.Fatal(err)
	}
	// A collection first, so the runtime's own one-time allocations (the
	// first cycle starts the mark workers) land outside the window.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.Drive(context.Background(), e, engine.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed != insts {
		t.Fatalf("%s/%s committed %d, want %d", model.Name, name, res.Counters.Committed, insts)
	}
	return after.Mallocs - before.Mallocs
}

// TestInOrderDriveAllocsFlat pins the in-order cores' steady state as
// allocation-free: a run ten times longer allocates no more, so nothing
// is allocated per fetched instruction. One object per fetch would add
// 180,000; the slack of eight absorbs the runtime's own occasional
// allocations.
func TestInOrderDriveAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		model config.Model
		work  string
	}{
		{config.Little(), "libquantum"},
		{config.Dual(), "namd"},
	} {
		short := driveAllocs(t, tc.model, tc.work, 20_000)
		long := driveAllocs(t, tc.model, tc.work, 200_000)
		t.Logf("%s/%s: %d allocs at 20k, %d at 200k", tc.model.Name, tc.work, short, long)
		if long > short+8 {
			t.Errorf("%s/%s: engine.Drive allocated %d objects over 200k instructions, %d over 20k: allocations grow with the run",
				tc.model.Name, tc.work, long, short)
		}
	}
}
