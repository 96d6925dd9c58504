// Command benchmark runs one workload of the repository's benchmark with a
// seed and prints its metrics; see NOTES.md for the workloads, the
// metrics and how to read a traced run's span file.
//
//	go run . --workload eval-matrix --seed 1 --seconds 20 --trace 0
//
// The untraced run (--trace 0) drives the simulator only through public
// entry points and prints the end-to-end metrics. The traced run
// (--trace 1) repeats the untraced run, replays the same ops through the
// layers with a span around every call, probes the layers the replay does
// not reach, and prints the per-layer metrics. The last line of standard
// output is the JSON result; lines before it start with "#".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"fxa/internal/perfgate"
)

type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string               // directory for span files and scratch caches
	env      perfgate.Fingerprint // the run's environment, stamped on every output
}

func (o *opts) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks, for standard error
	metrics           map[string]metric
	report            []string // "#" lines printed before the result
}

// fail records a failed op (or a failed whole-run check).
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{v, unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*opts) (*outcome, error){
	"eval-matrix":  runEvalMatrix,
	"sampled-span": runSampledSpan,
	"serve-routed": runServeRouted,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o opts
	var writeRef string
	var trace int
	flag.StringVar(&o.workload, "workload", "", "eval-matrix, sampled-span or serve-routed")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured run length")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run and the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/run", "directory for span files and scratch caches")
	flag.StringVar(&writeRef, "write-reference", "", "recompute the reference digests into this file and exit")
	flag.Parse()
	o.trace = trace == 1

	// One process on at most two CPUs, whatever the host has, so runs on
	// larger machines load the simulator the same way.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload eval-matrix|sampled-span|serve-routed --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	o.env = perfgate.CurrentFingerprint(".")
	envJSON, _ := json.Marshal(o.env) // plain strings and ints
	fmt.Printf("# env %s\n", envJSON)
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, trace)

	out, err := wl(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, l := range out.report {
		fmt.Println("# " + l)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 15

// repeatSetup runs setup setupReps times, undoing all but the last with
// teardown (nil when there is nothing to undo) outside the timing, and
// returns the median setup time.
func repeatSetup(setup, teardown func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
		if teardown != nil && i < setupReps-1 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return time.Duration(median(ds)), nil
}

// readMetric reads one runtime/metrics counter without stopping the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func allocBytes() uint64   { return readMetric("/gc/heap/allocs:bytes") }
func allocObjects() uint64 { return readMetric("/gc/heap/allocs:objects") }

// window is one timed phase: wall clock, process CPU and heap allocation,
// split into passes over the same op mix.
type window struct {
	t0, last time.Time
	lastCPU  time.Duration
	heap0    uint64
	passes   []pass

	wall  time.Duration
	alloc uint64
}

// pass is one pass's work and cost.
type pass struct {
	wall, cpu time.Duration
	insts     uint64
	ops       int
}

func startWindow() *window {
	now, cpu := time.Now(), processCPU()
	return &window{t0: now, last: now, lastCPU: cpu, heap0: allocBytes()}
}

// mark closes a pass of ops ops that simulated insts instructions.
func (w *window) mark(insts uint64, ops int) {
	now, cpu := time.Now(), processCPU()
	w.passes = append(w.passes, pass{now.Sub(w.last), cpu - w.lastCPU, insts, ops})
	w.last, w.lastCPU = now, cpu
}

func (w *window) stop() {
	w.wall = time.Since(w.t0)
	w.alloc = allocBytes() - w.heap0
}

// endToEnd sets the end-to-end metrics of a timed phase. The rates are
// medians over its passes, each pass one instruction count over one
// clock; latMS holds the latencies of the ops a percentile may pool.
func (o *outcome) endToEnd(setup time.Duration, w *window, latMS []float64) {
	var minst, opsS, cpuNS []float64
	var insts uint64
	ops := 0
	for _, p := range w.passes {
		minst = append(minst, float64(p.insts)/p.wall.Seconds()/1e6)
		opsS = append(opsS, float64(p.ops)/p.wall.Seconds())
		cpuNS = append(cpuNS, float64(p.cpu)/float64(p.insts))
		insts += p.insts
		ops += p.ops
	}
	n := len(latMS)
	o.set("setup_s", setup.Seconds(), "s")
	o.set("minst_s", median(minst), "Minst/s")
	o.set("ops_s", median(opsS), "1/s")
	o.set("cpu_ns_per_inst", median(cpuNS), "ns/inst")
	o.set("op_ms_p50", median(latMS), "ms")
	o.set("op_ms_p90", percentile(latMS, 900), "ms")
	o.set("alloc_bytes_per_inst", float64(w.alloc)/float64(insts), "B/inst")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.note("timed: %d passes, %d ops, %d insts, wall %.3fs; latency over %d ops, highest supported tail p%.1f",
		len(w.passes), ops, insts, w.wall.Seconds(), n, float64(tailPercentile(n))/10)
}

// printE2E renders the end-to-end metrics as report lines (traced runs
// print them here and the per-layer metrics in the result).
func (o *outcome) printE2E() {
	names := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		o.note("untraced %-22s %12.4f %s", k, o.metrics[k].Value, o.metrics[k].Unit)
	}
	o.metrics = nil
}
