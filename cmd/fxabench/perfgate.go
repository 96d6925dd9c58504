package main

// The -perfgate mode: build each gated benchmark suite from the -base
// revision and from the working tree, run the two alternately in pairs
// on this machine, judge the per-pair ratios with the sign test of
// internal/perfgate, and exit non-zero on any significant regression
// beyond threshold (DESIGN.md §8.5).

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fxa/internal/perfgate"
)

// perfgateConfig carries the perfgate-mode flag values.
type perfgateConfig struct {
	base      string  // -base: the revision the working tree is compared with
	threshold float64 // -threshold
	count     int     // -count: pairs
	suite     string  // -suite: all|core|emu|sampling
	benchOut  string  // -benchout: raw benchmark output artifact
	benchTime string  // -benchtime passthrough
	format    string  // -format: text|csv|markdown
	quiet     bool    // -q
}

// runPerfgate executes the gate. It returns gateFailed=true when at
// least one suite regressed — the caller turns that into a non-zero exit
// after all suites have reported, so a run with regressions in two
// suites shows both tables. An interrupt stops the benchmark processes
// and still removes the exported base tree.
func runPerfgate(ctx context.Context, cfg perfgateConfig) (gateFailed bool, err error) {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var specs []perfgate.SuiteSpec
	if cfg.suite == "all" {
		specs = perfgate.Suites
	} else {
		spec, err := perfgate.SuiteByName(cfg.suite)
		if err != nil {
			return false, err
		}
		specs = []perfgate.SuiteSpec{spec}
	}

	baseDir, baseCommit, err := perfgate.ExportTree(ctx, cfg.base)
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(baseDir)

	env := perfgate.CurrentFingerprint(".")
	fmt.Printf("perfgate: %s %s/%s, %s, %d CPUs, GOMAXPROCS %d\n",
		env.GoVersion, env.GOOS, env.GOARCH, orUnknown(env.CPUModel), env.NumCPU, env.GOMAXPROCS)
	fmt.Printf("perfgate: base %s (%s), head %s with the working tree's changes\n\n",
		baseCommit, cfg.base, orUnknown(env.Commit))

	runner := &perfgate.Runner{Count: cfg.count, BenchTime: cfg.benchTime}
	if !cfg.quiet {
		runner.Log = os.Stderr
	}
	if cfg.benchOut != "" {
		f, err := createNoClobber(cfg.benchOut)
		if err != nil {
			return false, err
		}
		defer f.Close()
		runner.RawOut = f
	}

	var failures []string
	for _, spec := range specs {
		base, head, err := runner.Run(ctx, spec, baseDir)
		if err != nil {
			return false, err
		}
		g := perfgate.Compare(spec.Name, base, head, cfg.threshold)
		renderGate(os.Stdout, g, cfg.format)
		fmt.Println(g.Summary())
		fmt.Println()
		for _, c := range g.Regressions() {
			failures = append(failures, fmt.Sprintf("%s: %s %s (median pair ratio %.3f, %d/%d pairs beyond %.2f, p %.3f)",
				g.SuiteName, c.Bench, c.Unit, c.Ratio, c.Beyond, c.Pairs, cfg.threshold, c.P))
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d regression(s):\n  %s\n",
			len(failures), strings.Join(failures, "\n  "))
		return true, nil
	}
	return false, nil
}

// renderGate emits the comparison table in the requested -format.
func renderGate(w io.Writer, g *perfgate.GateResult, format string) {
	t := g.Table()
	switch format {
	case "csv":
		t.CSV(w)
	case "markdown":
		t.Markdown(w)
	default:
		t.Render(w)
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// createNoClobber creates path for writing. If the file already exists
// it is rotated to path+".prev" first instead of being silently
// overwritten — repeated -cpuprofile/-memprofile/-benchout runs keep
// exactly one previous generation around for comparison.
func createNoClobber(path string) (*os.File, error) {
	if _, err := os.Stat(path); err == nil {
		prev := path + ".prev"
		if err := os.Rename(path, prev); err != nil {
			return nil, fmt.Errorf("%s exists and rotating it failed: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "fxabench: %s existed, rotated to %s\n", path, prev)
	}
	return os.Create(path)
}
