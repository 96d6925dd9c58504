package fxa

// Determinism and caching guarantees of the sweep-engine entry points:
// the parallel evaluation must be bit-identical to the serial one for
// every (workload, model) cell, and a cached re-run must reproduce the
// computed evaluation exactly.

import (
	"context"
	"reflect"
	"testing"
)

const parallelTestInsts = 20_000

// evalOrFatal runs the evaluation sweep with the given options.
func evalOrFatal(t *testing.T, opts SweepOptions) (*Evaluation, SweepStats) {
	t.Helper()
	ev, stats, err := RunEvaluation(context.Background(), 0, parallelTestInsts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ev, stats
}

func TestParallelEvaluationIdenticalToSerial(t *testing.T) {
	serial, sStats := evalOrFatal(t, SweepOptions{Workers: 1})
	parallel, pStats := evalOrFatal(t, SweepOptions{Workers: 8})

	if sStats.Ran != len(serial.Rows)*len(serial.Models) {
		t.Errorf("serial ran %d jobs, want %d", sStats.Ran, len(serial.Rows)*len(serial.Models))
	}
	if pStats.Workers != 8 {
		t.Errorf("parallel pool size %d, want 8", pStats.Workers)
	}
	if len(parallel.Rows) != len(serial.Rows) {
		t.Fatalf("row count %d != %d", len(parallel.Rows), len(serial.Rows))
	}
	for i, sr := range serial.Rows {
		pr := parallel.Rows[i]
		if pr.Workload.Name != sr.Workload.Name {
			t.Fatalf("row %d: workload %q != %q (ordering broken)", i, pr.Workload.Name, sr.Workload.Name)
		}
		for _, m := range serial.ModelNames() {
			if !reflect.DeepEqual(pr.Res[m], sr.Res[m]) {
				t.Errorf("%s on %s: parallel result differs from serial", sr.Workload.Name, m)
			}
			if !reflect.DeepEqual(pr.Energy[m], sr.Energy[m]) {
				t.Errorf("%s on %s: parallel energy differs from serial", sr.Workload.Name, m)
			}
		}
	}
	// And the derived figure views must agree exactly too.
	for _, g := range []Group{GroupINT, GroupFP, GroupALL} {
		if s, p := serial.GeomeanRelIPC("HALF+FX", g), parallel.GeomeanRelIPC("HALF+FX", g); s != p {
			t.Errorf("GeomeanRelIPC(%v): serial %v != parallel %v", g, s, p)
		}
	}
}

func TestEvaluationCacheRoundTrip(t *testing.T) {
	cache, err := OpenSweepCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, s1 := evalOrFatal(t, SweepOptions{Workers: 4, Cache: cache})
	if s1.CacheHits != 0 {
		t.Errorf("first run: %d cache hits, want 0", s1.CacheHits)
	}
	if s1.CacheMisses != s1.Jobs {
		t.Errorf("first run: %d misses, want %d", s1.CacheMisses, s1.Jobs)
	}
	cached, s2 := evalOrFatal(t, SweepOptions{Workers: 4, Cache: cache})
	if s2.CacheHits != s2.Jobs || s2.Ran != 0 {
		t.Errorf("second run: stats %+v, want all %d jobs served from cache", s2, s2.Jobs)
	}
	if !reflect.DeepEqual(fresh.Rows, cached.Rows) {
		t.Fatal("cached evaluation differs from computed evaluation (JSON round-trip lossy?)")
	}

	// A different instruction budget must not hit the same entries.
	ev3, s3, err := RunEvaluation(context.Background(), 0, parallelTestInsts/2, SweepOptions{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s3.CacheHits != 0 {
		t.Errorf("changed maxInsts still hit the cache %d times", s3.CacheHits)
	}
	if ev3.Rows[0].Res[ev3.ModelNames()[0]].Counters.Committed == fresh.Rows[0].Res[fresh.ModelNames()[0]].Counters.Committed {
		t.Error("half-budget run committed as many instructions as full run")
	}
}

func TestFigureSweepsDeterministicUnderParallelism(t *testing.T) {
	ctx := context.Background()
	const insts = 5_000
	s1, _, err := RunFigure11(ctx, insts, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, _, err := RunFigure11(ctx, insts, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Error("Figure 11 series differs between serial and parallel sweeps")
	}

	a12, a13, _, err := RunFigure1213(ctx, insts, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b12, b13, _, err := RunFigure1213(ctx, insts, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a12, b12) || !reflect.DeepEqual(a13, b13) {
		t.Error("Figure 12/13 series differ between serial and parallel sweeps")
	}
}
