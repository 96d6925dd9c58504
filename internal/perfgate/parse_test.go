package perfgate

import (
	"strings"
	"testing"
)

// benchOutput is a realistic `go test -bench -benchmem -count=3` capture:
// header lines, result lines with custom ns/inst metrics, a b.Logf
// line, PASS and ok trailers.
const benchOutput = `goos: linux
goarch: amd64
pkg: fxa/internal/core
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkCoreHotLoop/BIG/libquantum-8         	      90	  13112295 ns/op	       218.6 ns/inst	    1460 B/op	      23 allocs/op
BenchmarkCoreHotLoop/BIG/libquantum-8         	      92	  13050111 ns/op	       217.5 ns/inst	    1458 B/op	      23 allocs/op
BenchmarkCoreHotLoop/BIG/libquantum-8         	      91	  13080000 ns/op	       218.0 ns/inst	    1460 B/op	      23 allocs/op
BenchmarkCoreFlushHeavy-8                     	      40	  28000000 ns/op	       466.0 ns/inst	    2100 B/op	     160 allocs/op
BenchmarkCoreFlushHeavy-8                     	      41	  27900000 ns/op	       465.1 ns/inst	    2100 B/op	     161 allocs/op
BenchmarkCoreFlushHeavy-8                     	      39	  28100000 ns/op	       467.2 ns/inst	    2098 B/op	     160 allocs/op
--- BENCH: BenchmarkMemoryClone-8
    bench_test.go:83: resident footprint: 2065 pages
PASS
ok  	fxa/internal/core	12.3s
`

func TestParseBench(t *testing.T) {
	meas, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(meas), meas)
	}
	hot := meas["BenchmarkCoreHotLoop/BIG/libquantum"]
	if hot == nil {
		t.Fatalf("GOMAXPROCS suffix not normalized: %v", meas)
	}
	if got := hot["ns/inst"]; len(got) != 3 || got[0] != 218.6 || got[1] != 217.5 {
		t.Errorf("ns/inst samples = %v", got)
	}
	if got := hot["allocs/op"]; len(got) != 3 || got[0] != 23 {
		t.Errorf("allocs/op samples = %v", got)
	}
	if got := meas["BenchmarkCoreFlushHeavy"]["ns/op"]; len(got) != 3 {
		t.Errorf("ns/op samples = %v", got)
	}
}

func TestParseBenchFailDetected(t *testing.T) {
	out := "BenchmarkX-8 1 100 ns/op\n--- FAIL: BenchmarkX\nFAIL\nFAIL\tfxa/internal/core\t0.1s\n"
	if _, err := ParseBench(strings.NewReader(out)); err == nil {
		t.Fatal("ParseBench accepted a failed benchmark run")
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":             "BenchmarkFoo",
		"BenchmarkFoo/bar-16":        "BenchmarkFoo/bar",
		"BenchmarkFoo/bar":           "BenchmarkFoo/bar",
		"BenchmarkFoo/name-with-x":   "BenchmarkFoo/name-with-x",
		"BenchmarkFoo/HALF+FX/mcf-4": "BenchmarkFoo/HALF+FX/mcf",
	}
	for in, want := range cases {
		if got := normalizeBenchName(in); got != want {
			t.Errorf("normalizeBenchName(%q) = %q, want %q", in, got, want)
		}
	}
}
