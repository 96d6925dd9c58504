package fxa

// Cell-scoped recycling (DESIGN.md §8.13): a finished cell's cache arrays
// and page chunks go to the next cell, and must read exactly as new ones.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestRecycledCellsMatchFresh runs every model on four unlike proxies (lbm
// stores, mcf chases pointers, gcc branches and reads at random, namd is
// floating point) in two seeded orders in one process, so each cell
// inherits its cache arrays and page chunks from a different
// predecessor. Every Result must be identical across the orders.
func TestRecycledCellsMatchFresh(t *testing.T) {
	var specs []Spec
	for _, m := range AllModels() {
		for _, name := range []string{"lbm", "mcf", "gcc", "namd"} {
			w, err := WorkloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, Spec{Model: m, Workload: w, MaxInsts: 10_000})
		}
	}
	runAll := func(seed int64) []Result {
		got := make([]Result, len(specs))
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(specs)) {
			res, err := Run(context.Background(), specs[i])
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res
		}
		return got
	}
	a, b := runAll(1), runAll(2)
	for i, s := range specs {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s on %s: the Result depends on the cells run before it", s.Model.Name, s.Workload.Name)
		}
	}
}

// TestRepeatedCellAllocation pins the gain: once a first run has left its
// cache arrays and page chunks behind, a 40k-instruction HALF+FX lbm cell
// allocates under 400 KB (1,214 KB when every cell allocated its own).
// TotalAlloc also counts other goroutines' allocations, which only add
// bytes, so the test takes the least of three runs.
func TestRepeatedCellAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arrays and chunks at random")
	}
	w, err := WorkloadByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{Model: HalfFX(), Workload: w, MaxInsts: 40_000}
	if _, err := Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	n := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		n = min(n, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a repeated cell allocated %d KB", n>>10)
	if n >= 400<<10 {
		t.Errorf("a repeated cell allocated %d KB, want under 400 KB", n>>10)
	}
}
