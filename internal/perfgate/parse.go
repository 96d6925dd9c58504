package perfgate

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Measurements maps benchmark name → unit → sample vector (one sample
// per pair on each side of a gate run). Benchmark names are normalized:
// the trailing "-<GOMAXPROCS>" suffix `go test` appends is stripped.
type Measurements map[string]map[string][]float64

// add records one sample.
func (m Measurements) add(bench, unit string, v float64) {
	byUnit, ok := m[bench]
	if !ok {
		byUnit = make(map[string][]float64)
		m[bench] = byUnit
	}
	byUnit[unit] = append(byUnit[unit], v)
}

// ParseBench reads standard `go test -bench` output and collects every
// "value unit" measurement of every Benchmark result line. Non-benchmark
// lines (headers, PASS, ok, --- BENCH log output, b.Log lines) are
// ignored. A benchmark that go test reports as failed ("--- FAIL") makes
// ParseBench return an error: a gate must never pass on a crashed
// benchmark.
func ParseBench(r io.Reader) (Measurements, error) {
	meas := make(Measurements)
	var failed []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "FAIL") {
			failed = append(failed, strings.TrimSpace(line))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs:
		//   BenchmarkCoreHotLoop/BIG/mcf-8  22  51325941 ns/op  497.1 ns/inst  1344 B/op  164 allocs/op
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. a log line starting with Benchmark)
		}
		name := normalizeBenchName(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse bench output: bad value %q in line %q", fields[i], line)
			}
			meas.add(name, fields[i+1], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parse bench output: %w", err)
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("benchmark run failed: %s", strings.Join(failed, "; "))
	}
	return meas, nil
}

// normalizeBenchName strips the "-<GOMAXPROCS>" suffix go test appends
// to benchmark result names ("BenchmarkFoo/bar-8" → "BenchmarkFoo/bar").
// Only a purely numeric suffix after the last '-' is stripped, so
// workload names containing dashes survive.
func normalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
