// Command fxabench regenerates the paper's evaluation: every table and
// figure of Section VI, printed as aligned text tables.
//
// Usage:
//
//	fxabench [-n insts] [-warmup insts]
//	         [-j workers] [-cache] [-cachedir dir]
//	         [-serve-url http://host:port] [-tenant name]
//	         [-experiment all|table1|table2|fig7|fig8a|fig8b|fig9|fig10|fig11|fig12|fig13|headline]
//	         [-format text|csv|markdown] [-q]
//	         [-cpuprofile file] [-memprofile file]
//	fxabench -intervals N [-workload W] [-model M] [-n insts] [-warmup insts]
//	         [-format text|csv|json]
//	fxabench -sample intervals:window:skip[:warmup] [-workload W] [-model M]
//	         [-ci 0.95] [-j workers] [-format text|csv|markdown|json]
//	fxabench -perfgate [-base HEAD^] [-threshold 1.10] [-count 5]
//	         [-suite all|core|emu|sampling]
//	         [-benchout file] [-benchtime d] [-format text|csv|markdown]
//
// With -perfgate, fxabench becomes the performance-regression gate
// (DESIGN.md §8.5): it exports the -base revision (default HEAD^, the
// base tip of a PR merge commit) with `git archive` into a temporary
// directory, builds each suite's test binary there and in the working
// tree with `go test -c`, and runs the two alternately for -count pairs,
// one process per sample. It prints a comparison table per suite and
// exits non-zero when a metric's per-pair ratios show, by a one-sided
// sign test at 95% confidence, a median worsening beyond -threshold
// (every pair of 5, 9 of 10). -benchout preserves both sides' raw
// benchmark output (the CI artifact); -threshold must lie in (1, 10],
// and -count must be at least 5.
//
// With -intervals N, fxabench switches to single-run mode: it simulates
// one workload on one model with the engine layer's interval-metrics
// collection enabled and prints the per-interval time series (IPC, IXU
// rate, branch/L1D/L2 MPKI, ROB/IQ occupancy) roughly every N committed
// instructions. The interval counter deltas partition the run exactly —
// the text rendering's totals line reconciles them against the final
// counters, and -format json emits the full schema-versioned Result.
//
// With -sample, fxabench runs one workload on one model with SMARTS-style
// systematic sampling (internal/sampling, DESIGN.md §8.7) instead of one
// long detailed run. The schedule is a colon-separated
// intervals:window:skip[:warmup] tuple — number of detailed windows,
// measured instructions per window, functional fast-forward before each
// window, and an optional detailed-warm-up prefix per window that
// simulates in full detail but is excluded from measurement. Counts
// accept decimal k/M/G suffixes, including fractional ones that resolve
// to whole instructions ("-sample 10:1M:8.9M:100k" is ten 1M-instruction
// windows, each after an 8.9M skip and a 100k warm-up — the paper's
// skip-then-measure methodology at 100M total span). The output is a
// per-metric table of estimate ± Student-t confidence
// interval (IPC, branch MPKI, energy/inst) at the -ci level, with the
// analytic bottleneck IPC cross-check in the footer; -format json emits
// the full schema-versioned sampling Summary.
//
// With -warmup, the main sweep fast-forwards each (workload, model) cell
// functionally (emulator only, no timing) before its detailed window — the
// paper's skip-then-measure methodology (Section VI-A) at reduced scale.
// The sweep summary line then reports the fast-forward volume and
// throughput ("ff X Minst at Y Minst/s").
//
// With -cpuprofile the whole invocation is profiled; with -memprofile an
// allocation profile ("allocs", cumulative since process start) is written
// at exit. Both feed `go tool pprof` and exist to keep the simulator's
// hot-loop allocation discipline observable (see DESIGN.md §8.2). Sweep
// progress lines additionally report allocs/Kinst. An existing profile
// (or -benchout) file is never silently overwritten: the previous file
// is rotated to <file>.prev first, so back-to-back profiling runs always
// keep one generation to diff against.
//
// The main sweep (figures 7, 8a, 8b, 10 and the headline numbers) runs
// every SPEC CPU 2006 proxy on every model once and derives all views from
// that single evaluation. Figures 11-13 run their own design-space sweeps.
//
// All sweeps execute through the internal/sweep orchestration engine on a
// bounded worker pool (-j, default GOMAXPROCS); results are deterministic
// for any worker count. With -cache, finished runs are stored in a
// content-addressed on-disk cache (-cachedir, default
// $XDG_CACHE_HOME/fxabench) so repeated invocations with unchanged
// configurations skip simulation entirely.
//
// With -serve-url, the main evaluation sweep (fig7/fig8a/fig8b/fig10/
// headline) runs on a remote fxad daemon instead of locally: each
// (workload, model) cell becomes one job, interval metrics stream back
// live, and the daemon's shared cache serves hits across every client.
// Remote results are bit-identical to a local run of the same
// configuration (differential-test-enforced). The sensitivity sweeps
// (fig11-fig13) vary private model knobs the daemon does not expose and
// always run locally.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"fxa"
	"fxa/internal/energy"
	"fxa/internal/engine"
	"fxa/internal/report"
	"fxa/internal/serve"
)

// exitHooks run before any process exit (normal return or fatal), because
// os.Exit skips deferred calls; profile writers register here.
var exitHooks []func()

func runExitHooks() {
	for i := len(exitHooks) - 1; i >= 0; i-- {
		exitHooks[i]()
	}
	exitHooks = nil
}

// renderable is anything the report package can emit in all formats.
type renderable interface {
	Render(w io.Writer)
	CSV(w io.Writer)
	Markdown(w io.Writer)
}

// validExperiments lists the accepted -experiment values in display order.
var validExperiments = []string{
	"all", "table1", "table2", "fig7", "fig8a", "fig8b", "fig9",
	"fig10", "fig11", "fig12", "fig13", "headline",
}

// validFormats lists the accepted -format values ("json" additionally
// works for the single-run -intervals mode).
var validFormats = []string{"text", "csv", "markdown"}

// printModels renders the full model catalog (-list-models): every named
// model across all core kinds, with its registry status. The first five
// are the paper's evaluation set; the rest are usable through -model and
// the public API but excluded from the figure sweeps.
func printModels(w io.Writer) {
	t := &report.Table{
		Title:   "models",
		Headers: []string{"model", "kind", "fetch", "issue", "FX", "registered"},
		Footer: []string{
			"the first five are the paper's Section VI evaluation set (fxa.Models);",
			"all rows resolve via -model and fxa.ModelByName (fxa.AllModels)",
		},
	}
	for _, m := range fxa.AllModels() {
		fxMark := ""
		if m.FX {
			fxMark = "yes"
		}
		t.AddRow(m.Name, m.Kind.String(),
			strconv.Itoa(m.FetchWidth), strconv.Itoa(m.IssueWidth),
			fxMark, fmt.Sprintf("%v", engine.Registered(m.Kind)))
	}
	t.Render(w)
}

func main() {
	n := flag.Uint64("n", 300_000, "dynamic instructions per benchmark run")
	warmup := flag.Uint64("warmup", 0, "functional fast-forward instructions before each main-sweep run")
	exp := flag.String("experiment", "all", "which experiment to run ("+strings.Join(validExperiments, ", ")+")")
	quiet := flag.Bool("q", false, "suppress progress output")
	format := flag.String("format", "text", "output format: "+strings.Join(validFormats, ", "))
	workers := flag.Int("j", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	useCache := flag.Bool("cache", false, "cache simulation results on disk and reuse them")
	cacheDir := flag.String("cachedir", "", "result cache directory (implies -cache; default $XDG_CACHE_HOME/fxabench)")
	serveURL := flag.String("serve-url", "", "run the main evaluation sweep on a remote fxad daemon at this base URL")
	tenant := flag.String("tenant", "", "tenant name stamped on remote submissions (with -serve-url)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	intervals := flag.Uint64("intervals", 0, "single-run mode: collect interval metrics every N committed instructions (requires -workload/-model)")
	sampleSpec := flag.String("sample", "", "sampled-run mode: intervals:window:skip[:warmup] schedule (k/M/G suffixes; uses -workload/-model)")
	ciLevel := flag.Float64("ci", 0.95, "two-sided confidence level for -sample's intervals, in (0,1)")
	workloadName := flag.String("workload", "libquantum", "workload for -intervals/-sample mode")
	modelName := flag.String("model", "HALF+FX", "processor model for -intervals/-sample mode")
	gateMode := flag.Bool("perfgate", false, "performance-regression gate mode: run the benchmark suites in alternating pairs against a base revision")
	gateBase := flag.String("base", "HEAD^", "perfgate: the git revision the working tree is compared with")
	gateThreshold := flag.Float64("threshold", 1.10, "perfgate: practical regression threshold as a worseness ratio, in (1, 10]")
	gateCount := flag.Int("count", 5, "perfgate: alternating pairs of benchmark processes per suite (at least 5)")
	gateSuite := flag.String("suite", "all", "perfgate: which suite to run (all, core, emu, sampling)")
	gateBenchOut := flag.String("benchout", "", "perfgate: tee both sides' raw benchmark output to this file (rotated, never clobbered)")
	gateBenchTime := flag.String("benchtime", "", "perfgate: -test.benchtime passed through to the benchmarks (default: go's)")
	listModels := flag.Bool("list-models", false, "print every named model with its core kind and exit")
	flag.Parse()

	if *listModels {
		printModels(os.Stdout)
		return
	}

	if !contains(validExperiments, *exp) {
		fatal(fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(validExperiments, ", ")))
	}
	if !contains(validFormats, *format) && !(*format == "json" && (*intervals > 0 || *sampleSpec != "")) {
		fatal(fmt.Errorf("unknown format %q (valid: %s; json with -intervals or -sample)", *format, strings.Join(validFormats, ", ")))
	}
	if *sampleSpec != "" && *intervals > 0 {
		fatal(fmt.Errorf("-sample and -intervals are distinct single-run modes; pick one"))
	}
	if *ciLevel <= 0 || *ciLevel >= 1 {
		fatal(fmt.Errorf("-ci %v out of range: confidence level must be in (0,1)", *ciLevel))
	}
	if *tenant != "" && *serveURL == "" {
		fatal(fmt.Errorf("-tenant requires -serve-url"))
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["ci"] && *sampleSpec == "" {
		fatal(fmt.Errorf("-ci requires -sample"))
	}
	if !*gateMode {
		// The perfgate knobs mean nothing outside -perfgate; reject
		// them instead of silently ignoring a mistyped gate run.
		for _, name := range []string{"base", "threshold", "count", "suite", "benchout", "benchtime"} {
			if set[name] {
				fatal(fmt.Errorf("-%s requires -perfgate", name))
			}
		}
	} else if *gateThreshold <= 1 || *gateThreshold > 10 {
		fatal(fmt.Errorf("-threshold %v out of range: must be in (1, 10] (it is a worseness ratio; 1.10 gates 10%% regressions)", *gateThreshold))
	} else if *gateCount < 5 {
		fatal(fmt.Errorf("-count %d too small: a one-sided sign test cannot reach p < 0.05 with fewer than 5 pairs (default 5)", *gateCount))
	}

	if *cpuprofile != "" {
		f, err := createNoClobber(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		exitHooks = append(exitHooks, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memprofile != "" {
		path := *memprofile
		exitHooks = append(exitHooks, func() {
			f, err := createNoClobber(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fxabench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fxabench: memprofile:", err)
			}
		})
	}
	defer runExitHooks()

	if *gateMode {
		failed, err := runPerfgate(context.Background(), perfgateConfig{
			base:      *gateBase,
			threshold: *gateThreshold,
			count:     *gateCount,
			suite:     *gateSuite,
			benchOut:  *gateBenchOut,
			benchTime: *gateBenchTime,
			format:    *format,
			quiet:     *quiet,
		})
		if err != nil {
			fatal(err)
		}
		if failed {
			runExitHooks()
			os.Exit(1)
		}
		return
	}

	if *intervals > 0 {
		if err := runIntervals(*modelName, *workloadName, *n, *warmup, *intervals, *format); err != nil {
			fatal(err)
		}
		return
	}

	if *sampleSpec != "" {
		cfg, err := parseSampleSpec(*sampleSpec)
		if err != nil {
			fatal(err)
		}
		cfg.CILevel = *ciLevel
		cfg.Workers = *workers
		if err := runSample(*modelName, *workloadName, cfg, *format, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	opts := fxa.SweepOptions{Workers: *workers}
	if *useCache || *cacheDir != "" {
		dir := *cacheDir
		if dir == "" {
			dir = defaultCacheDir()
		}
		cache, err := fxa.OpenSweepCache(dir)
		if err != nil {
			fatal(err)
		}
		opts.Cache = cache
	}

	show := func(r renderable) {
		switch *format {
		case "csv":
			r.CSV(os.Stdout)
		case "markdown":
			r.Markdown(os.Stdout)
		default:
			r.Render(os.Stdout)
		}
		fmt.Println()
	}

	// progressOpts derives per-sweep engine options whose OnEvent
	// callback rewrites one stderr status line. The engine delivers
	// events from a single goroutine, so this is the only writer and
	// "\r"-updates never interleave, regardless of -j.
	progressOpts := func(stage string) fxa.SweepOptions {
		o := opts
		if *quiet {
			return o
		}
		o.OnEvent = func(e fxa.SweepEvent) {
			if e.Kind != fxa.SweepEventDone {
				return
			}
			suffix := ""
			if e.CacheHit {
				suffix = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "\r%-78s",
				fmt.Sprintf("%s [%d/%d] %s%s", stage, e.Done, e.Total, e.Label, suffix))
		}
		return o
	}
	done := func(stage string, stats fxa.SweepStats) {
		if *quiet {
			return
		}
		fmt.Fprintf(os.Stderr, "\r%-78s\r", "")
		fmt.Fprintf(os.Stderr, "%s: %s\n", stage, stats)
	}
	localNote := func(stage string) {
		if *serveURL != "" && !*quiet {
			fmt.Fprintf(os.Stderr, "fxabench: %s runs locally; -serve-url covers only the main evaluation sweep\n", stage)
		}
	}

	wants := func(name string) bool { return *exp == "all" || *exp == name }
	ctx := context.Background()

	if wants("table1") {
		show(fxa.Table1())
	}
	if wants("table2") {
		show(fxa.Table2())
	}

	needSweep := false
	for _, e := range []string{"fig7", "fig8a", "fig8b", "fig10", "headline"} {
		if wants(e) {
			needSweep = true
		}
	}
	var ev *fxa.Evaluation
	if needSweep {
		if *serveURL != "" {
			var err error
			ev, err = runRemoteSweep(ctx, *serveURL, *tenant, *warmup, *n, *workers, *quiet)
			if err != nil {
				fatal(err)
			}
		} else {
			var err error
			var stats fxa.SweepStats
			ev, stats, err = fxa.RunEvaluation(ctx, *warmup, *n, progressOpts("main sweep"))
			if err != nil {
				fatal(err)
			}
			done("main sweep", stats)
		}
	}
	if wants("fig7") {
		show(ev.Figure7Table())
	}
	if wants("fig8a") {
		show(ev.Figure8aTable())
	}
	if wants("fig8b") {
		show(ev.Figure8bTable())
	}
	if wants("fig9") {
		whole, detail := fxa.Figure9Tables()
		show(whole)
		show(detail)
	}
	if wants("fig10") {
		show(ev.Figure10Table())
	}
	if wants("fig11") {
		localNote("figure 11 sweep")
		s, stats, err := fxa.RunFigure11(ctx, *n, progressOpts("figure 11 sweep"))
		if err != nil {
			fatal(err)
		}
		done("figure 11 sweep", stats)
		show(s)
	}
	if wants("fig12") || wants("fig13") {
		localNote("figure 12/13 sweep")
		f12, f13, stats, err := fxa.RunFigure1213(ctx, *n, progressOpts("figure 12/13 sweep"))
		if err != nil {
			fatal(err)
		}
		done("figure 12/13 sweep", stats)
		if wants("fig12") {
			show(f12)
		}
		if wants("fig13") {
			show(f13)
		}
	}
	if wants("headline") {
		printHeadline(ev)
	}
}

// runRemoteSweep runs the main evaluation matrix on a remote fxad
// daemon and reassembles the Evaluation locally. Results are
// bit-identical to a local sweep of the same -warmup/-n.
func runRemoteSweep(ctx context.Context, baseURL, tenant string, warmup, n uint64, workers int, quiet bool) (*fxa.Evaluation, error) {
	client := &serve.Client{BaseURL: baseURL, Tenant: tenant}
	if _, err := client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("cannot reach fxad at %s: %w", baseURL, err)
	}
	onDone := func(done, total int, label string, cached bool) {
		if quiet {
			return
		}
		suffix := ""
		if cached {
			suffix = " (cached)"
		}
		fmt.Fprintf(os.Stderr, "\r%-78s",
			fmt.Sprintf("remote sweep [%d/%d] %s%s", done, total, label, suffix))
	}
	ev, hits, err := serve.RemoteEvaluation(ctx, client, warmup, n, workers, onDone)
	if err != nil {
		return nil, err
	}
	if !quiet {
		total := len(fxa.Workloads()) * len(fxa.Models())
		fmt.Fprintf(os.Stderr, "\r%-78s\r", "")
		fmt.Fprintf(os.Stderr, "remote sweep: %d jobs, %d served from the daemon's shared cache\n", total, hits)
	}
	return ev, nil
}

// defaultCacheDir picks the per-user cache location, falling back to a
// local directory when the platform offers none.
func defaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "fxabench")
	}
	return ".fxabench-cache"
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// printHeadline reports the paper's summary numbers (Sections VI-C/D/G,
// IV-A) next to the measured values.
func printHeadline(ev *fxa.Evaluation) {
	fmt.Println("Headline numbers (paper -> measured):")
	row := func(what string, paper float64, measured float64) {
		fmt.Printf("  %-52s paper %6.3f   measured %6.3f\n", what, paper, measured)
	}
	row("HALF+FX IPC vs BIG (geomean ALL)", 1.057, ev.GeomeanRelIPC("HALF+FX", fxa.GroupALL))
	row("HALF+FX IPC vs BIG (geomean INT)", 1.074, ev.GeomeanRelIPC("HALF+FX", fxa.GroupINT))
	row("HALF+FX IPC vs BIG (geomean FP)", 1.045, ev.GeomeanRelIPC("HALF+FX", fxa.GroupFP))
	if r, err := ev.RowByName("libquantum"); err == nil {
		row("libquantum HALF+FX IPC vs BIG (max in paper)", 1.67, r.RelIPC("HALF+FX"))
	}
	row("LITTLE IPC vs BIG", 0.60, ev.GeomeanRelIPC("LITTLE", fxa.GroupALL))
	row("HALF IPC vs BIG", 0.84, ev.GeomeanRelIPC("HALF", fxa.GroupALL))
	row("HALF+FX total energy vs BIG", 0.83, ev.TotalEnergyRatio("HALF+FX"))
	row("BIG+FX total energy vs BIG", 0.913, ev.TotalEnergyRatio("BIG+FX"))
	row("LITTLE total energy vs BIG", 0.60, ev.TotalEnergyRatio("LITTLE"))
	row("HALF+FX IQ energy vs BIG", 0.14, ev.EnergyRatio("HALF+FX", energy.IQ))
	row("HALF+FX LSQ energy vs BIG", 0.77, ev.EnergyRatio("HALF+FX", energy.LSQ))
	row("HALF+FX PER vs BIG", 1.25, ev.PER("HALF+FX", fxa.GroupALL))
	perLittle := ev.PER("LITTLE", fxa.GroupALL)
	if perLittle > 0 {
		row("HALF+FX PER vs LITTLE", 1.27, ev.PER("HALF+FX", fxa.GroupALL)/perLittle)
	}
	row("IXU execution rate (ALL)", 0.54, ev.GeomeanIXURate("HALF+FX", fxa.GroupALL))
	row("IXU execution rate (INT)", 0.61, ev.GeomeanIXURate("HALF+FX", fxa.GroupINT))
	row("IXU execution rate (FP)", 0.51, ev.GeomeanIXURate("HALF+FX", fxa.GroupFP))
	row("category (a): ready at IXU entry", 0.055, ev.ReadyAtEntryRate("HALF+FX"))
	bigA, fxA := fxa.AreaOf(fxa.Big()), fxa.AreaOf(fxa.HalfFX())
	row("HALF+FX area vs BIG", 1.027, fxA.Total()/bigA.Total())
}

func fatal(err error) {
	runExitHooks()
	fmt.Fprintln(os.Stderr, "fxabench:", err)
	os.Exit(1)
}

// parseSampleSpec parses the -sample schedule: a colon-separated
// intervals:window:skip[:warmup] tuple of instruction counts.
func parseSampleSpec(s string) (fxa.SamplingConfig, error) {
	var cfg fxa.SamplingConfig
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return cfg, fmt.Errorf("-sample wants intervals:window:skip[:warmup], got %q", s)
	}
	field := func(name, v string) (uint64, error) {
		n, err := parseInsts(v)
		if err != nil {
			return 0, fmt.Errorf("-sample %s %q: %w", name, v, err)
		}
		return n, nil
	}
	iv, err := field("intervals", parts[0])
	if err != nil {
		return cfg, err
	}
	if iv == 0 || iv > 1<<30 {
		return cfg, fmt.Errorf("-sample intervals %q out of range", parts[0])
	}
	cfg.Intervals = int(iv)
	if cfg.IntervalInsts, err = field("window", parts[1]); err != nil {
		return cfg, err
	}
	if cfg.IntervalInsts == 0 {
		return cfg, fmt.Errorf("-sample window must be positive")
	}
	if cfg.SkipInsts, err = field("skip", parts[2]); err != nil {
		return cfg, err
	}
	if len(parts) == 4 {
		if cfg.WarmupInsts, err = field("warmup", parts[3]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// parseInsts parses an instruction count with an optional decimal k/M/G
// suffix. Fractional values are accepted when they resolve to a whole
// instruction count ("7.9M" = 7_900_000), so paper-style schedules read
// naturally on the command line.
func parseInsts(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1_000_000_000, s[:len(s)-1]
	}
	if mult > 1 && strings.Contains(s, ".") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("not a count")
		}
		v := f * float64(mult)
		if v != math.Trunc(v) || v > float64(1<<62) {
			return 0, fmt.Errorf("fractional count must resolve to whole instructions")
		}
		return uint64(v), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a count")
	}
	if mult > 1 && v > math.MaxUint64/mult {
		return 0, fmt.Errorf("count overflows")
	}
	return v * mult, nil
}

// runSample is the single-run -sample mode: sample one workload on one
// model per the parsed schedule and emit the per-metric estimate±CI table
// (internal/report), or the full schema-versioned Summary with -format
// json. The stderr summary line reports the run economics — detailed
// versus fast-forwarded volume — since fast-forward dominates sampled
// wall clock.
func runSample(modelName, workloadName string, cfg fxa.SamplingConfig, format string, quiet bool) error {
	m, err := fxa.ModelByName(modelName)
	if err != nil {
		return err
	}
	w, err := fxa.WorkloadByName(workloadName)
	if err != nil {
		return err
	}
	sum, err := fxa.Sample(context.Background(), m, w, cfg)
	if err != nil {
		return fmt.Errorf("sampling %s on %s: %w", w.Name, m.Name, err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "sampled run: %s\n", sum.Sweep)
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&sum)
	case "csv":
		report.SamplingCSV(os.Stdout, &sum)
	case "markdown":
		report.SamplingMarkdown(os.Stdout, &sum)
	default:
		report.Sampling(os.Stdout, &sum)
	}
	return nil
}

// runIntervals is the single-run -intervals mode: simulate one workload
// on one model with interval-metrics collection and emit the series as
// text, csv or json. The text and csv renderings come from
// internal/report; json emits the full schema-versioned Result.
func runIntervals(modelName, workloadName string, n, warmup, every uint64, format string) error {
	m, err := fxa.ModelByName(modelName)
	if err != nil {
		return err
	}
	w, err := fxa.WorkloadByName(workloadName)
	if err != nil {
		return err
	}
	res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Workload: w, Warmup: warmup, MaxInsts: n, IntervalInsts: every})
	if err != nil {
		return err
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&res)
	case "csv":
		report.IntervalsCSV(os.Stdout, &res)
	default:
		report.Intervals(os.Stdout, &res)
	}
	return nil
}
