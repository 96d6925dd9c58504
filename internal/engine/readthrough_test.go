package engine_test

import (
	"context"
	"testing"

	"fxa/internal/config"
	_ "fxa/internal/core"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/workload"
)

// TestColdCellReadsThroughSparseTables pins read-through (DESIGN.md
// §8.11) on the evaluation sweep's cells: a 40,000-instruction HALF+FX
// cell of mcf (pointer chase over 8 MiB) or milc (random reads over
// 8 MiB) reads a few words of each of some 1,600 data pages and must
// leave almost all of them unmaterialised. Generating every touched page
// kept 1,558 and 1,686 pages resident.
func TestColdCellReadsThroughSparseTables(t *testing.T) {
	model, err := config.ByName("HALF+FX")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcf", "milc"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		m := emu.New(w.MustBuild())
		e, err := engine.New(model, emu.NewStream(m, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Drive(context.Background(), e, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Committed != 40_000 {
			t.Fatalf("%s committed %d, want 40000", name, res.Counters.Committed)
		}
		t.Logf("%s: %d resident pages", name, m.Mem.Footprint())
		if n := m.Mem.Footprint(); n > 100 {
			t.Errorf("%s: %d pages resident after the cell, want at most 100", name, n)
		}
	}
}
