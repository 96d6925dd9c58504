package sweep

import (
	"testing"
	"time"
)

func TestBenchMetrics(t *testing.T) {
	// Nothing measured: nothing reported (never a meaningless zero).
	if m := (Stats{}).BenchMetrics(); len(m) != 0 {
		t.Errorf("empty Stats reported metrics: %v", m)
	}

	s := Stats{
		SimInsts: 2_000_000,
		Wall:     time.Second,
		Allocs:   4000,
		FFInsts:  10_000_000,
		FFTime:   500 * time.Millisecond,
	}
	got := s.BenchMetrics()
	want := map[string]float64{
		"det-Minst/wall-s": 2,
		"allocs/Kinst":     2,
		"ff-Minst/s":       20,
	}
	if len(got) != len(want) {
		t.Fatalf("BenchMetrics = %v, want %d metrics", got, len(want))
	}
	// Order is deterministic: det-Minst/wall-s, allocs/Kinst, ff-Minst/s.
	order := []string{"det-Minst/wall-s", "allocs/Kinst", "ff-Minst/s"}
	for i, m := range got {
		if m.Unit != order[i] {
			t.Errorf("metric %d = %q, want %q", i, m.Unit, order[i])
		}
		if w := want[m.Unit]; m.Value != w {
			t.Errorf("%s = %v, want %v", m.Unit, m.Value, w)
		}
	}

	// No fast-forward: ff-Minst/s omitted.
	s.FFInsts = 0
	if got := s.BenchMetrics(); len(got) != 2 {
		t.Errorf("no-FF BenchMetrics = %v, want 2 metrics", got)
	}
}
