package perfgate

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSuite() *Suite {
	return &Suite{
		Schema:    SchemaVersion,
		SuiteName: "core",
		Env: Fingerprint{
			GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 8, GOMAXPROCS: 8, CPUModel: "Test CPU", Commit: "abc1234",
		},
		Benchmarks: Measurements{
			"BenchmarkCoreHotLoop/BIG/libquantum": {
				"ns/inst":   {218.6, 217.5, 218.0, 219.1, 217.9},
				"allocs/op": {23, 23, 23, 23, 23},
				"B/op":      {1460, 1458, 1460, 1460, 1459},
			},
		},
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	s := sampleSuite()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", s, got)
	}
}

// TestLoadBaselineRejectsLegacyFormat: a file without perfgate_schema
// (the pre-perfgate ad-hoc shape) is schema 0, so it fails the version
// check and carries the migration path.
func TestLoadBaselineRejectsLegacyFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_emu.json")
	if err := os.WriteFile(path, []byte(`{"geomean_speedup": {"all_29": 5.17}, "workloads": [{"workload": "mcf", "speedup": 3.69}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBaseline(path)
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("err = %v, want ErrSchemaVersion", err)
	}
	for _, want := range []string{"schema 0", "-update-baseline"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("legacy error %q missing %q", err, want)
		}
	}
}

func TestLoadBaselineRejectsStaleSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	if err := os.WriteFile(path, []byte(`{"perfgate_schema": 999, "suite": "core", "benchmarks": {"B": {"ns/op": [1]}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBaseline(path)
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("err = %v, want ErrSchemaVersion", err)
	}
	if !strings.Contains(err.Error(), "999") {
		t.Errorf("schema error %q does not name the stale version", err)
	}
}

func TestLoadBaselineRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	if err := os.WriteFile(path, []byte(`{"perfgate_schema": 1, "suite": "core", "benchmarks": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

func TestUnitsOfOrdering(t *testing.T) {
	s := &Suite{Benchmarks: Measurements{
		"B": {"B/op": {1}, "ns/inst": {1}, "allocs/op": {1}, "ns/op": {1}},
	}}
	got := s.UnitsOf("B")
	want := []string{"ns/inst", "ns/op", "B/op", "allocs/op"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UnitsOf = %v, want %v", got, want)
	}
}
