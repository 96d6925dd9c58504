package perfgate

import (
	"archive/tar"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// sampleTimeout bounds one benchmark process, go test's own default: a
// hung benchmark fails the gate instead of stalling it.
const sampleTimeout = "10m"

// ExportTree writes the tree of revision rev into a new temporary
// directory with `git archive` and returns the directory and the
// revision's abbreviated commit. Reading the committed tree leaves the
// repository (index, worktrees, refs, working files) as it was. The
// caller removes the directory.
func ExportTree(ctx context.Context, rev string) (dir, commit string, err error) {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "--verify", rev+"^{commit}").CombinedOutput()
	if err != nil {
		return "", "", fmt.Errorf("base revision %q: %v: %s (a shallow clone needs its full history fetched)", rev, err, bytes.TrimSpace(out))
	}
	commit = strings.TrimSpace(string(out))
	dir, err = os.MkdirTemp("", "perfgate-base-")
	if err != nil {
		return "", "", err
	}
	if err := archive(ctx, commit, dir); err != nil {
		os.RemoveAll(dir)
		return "", "", err
	}
	return dir, commit, nil
}

// archive extracts `git archive` of rev into dir.
func archive(ctx context.Context, rev, dir string) error {
	cmd := exec.CommandContext(ctx, "git", "archive", "--format=tar", rev)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	xerr := untar(pipe, dir)
	io.Copy(io.Discard, pipe) // let git finish writing if untar stopped early
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if xerr != nil {
		return fmt.Errorf("git archive %s: extract: %w", rev, xerr)
	}
	return nil
}

// untar writes the directories and regular files of a tar stream under
// dir; git archive emits nothing else for this repository.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, h.Name)
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, h.FileInfo().Mode().Perm())
			if err != nil {
				return err
			}
			_, err = io.Copy(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
}

// Runner measures a suite in alternating pairs: it builds the suite's
// test binary once in the base tree and once in the working tree, then
// runs the two in turn (base head, head base, ...), each sample a fresh
// process with -test.count 1, so neither side always runs first on a
// host whose speed drifts, and no sample inherits another's warm heap.
type Runner struct {
	// Count is the number of pairs (default 5, the fewest at which a
	// one-sided sign test can reach p < 0.05).
	Count int

	// BenchTime is passed through as -test.benchtime when non-empty
	// (e.g. "0.5s" to shorten local runs at the cost of noise).
	BenchTime string

	RawOut io.Writer // optional tee of the raw benchmark output (CI artifact)
	Log    io.Writer // optional progress log
}

func (r *Runner) count() int {
	if r.Count <= 0 {
		return 5
	}
	return r.Count
}

// Run measures one suite and returns the samples of the base tree at
// baseDir and of the working tree; sample i of every metric on both
// sides comes from pair i. Build failures, benchmark failures, non-zero
// exits and empty result sets are all errors: the gate never passes on
// a run that did not measure.
func (r *Runner) Run(ctx context.Context, spec SuiteSpec, baseDir string) (base, head Measurements, err error) {
	binDir, err := os.MkdirTemp("", "perfgate-bin-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(binDir)

	sides := []struct {
		name, tree, bin string
		meas            Measurements
	}{
		{name: "base", tree: baseDir, bin: filepath.Join(binDir, "base.test"), meas: Measurements{}},
		{name: "head", tree: ".", bin: filepath.Join(binDir, "head.test"), meas: Measurements{}},
	}
	for _, s := range sides {
		r.logf("perfgate: suite %s: go test -c %s (%s)\n", spec.Name, spec.Pkg, s.name)
		cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", s.bin, spec.Pkg)
		cmd.Dir = s.tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("suite %s: build %s: %w\n%s", spec.Name, s.name, err, tail(out, 2048))
		}
	}

	args := []string{
		"-test.run", "^$",
		"-test.bench", spec.Pattern,
		"-test.benchmem",
		"-test.count", "1",
		"-test.timeout", sampleTimeout,
	}
	if r.BenchTime != "" {
		args = append(args, "-test.benchtime", r.BenchTime)
	}
	n := r.count()
	for i := 0; i < n; i++ {
		r.logf("perfgate: suite %s: pair %d/%d\n", spec.Name, i+1, n)
		for j := range sides {
			s := &sides[(i+j)%2] // base first in even pairs, head first in odd ones
			if r.RawOut != nil {
				fmt.Fprintf(r.RawOut, "# pair %d %s\n", i+1, s.name)
			}
			cmd := exec.CommandContext(ctx, s.bin, args...)
			cmd.Dir = filepath.Join(s.tree, spec.Pkg)
			var buf bytes.Buffer
			out := io.Writer(&buf)
			if r.RawOut != nil {
				out = io.MultiWriter(&buf, r.RawOut)
			}
			cmd.Stdout = out
			cmd.Stderr = out
			runErr := cmd.Run()
			meas, parseErr := ParseBench(bytes.NewReader(buf.Bytes()))
			if runErr != nil {
				return nil, nil, fmt.Errorf("suite %s: pair %d %s: %w\n%s", spec.Name, i+1, s.name, runErr, tail(buf.Bytes(), 2048))
			}
			if parseErr != nil {
				return nil, nil, fmt.Errorf("suite %s: pair %d %s: %w", spec.Name, i+1, s.name, parseErr)
			}
			if len(meas) == 0 {
				return nil, nil, fmt.Errorf("suite %s: no benchmarks matched %q in %s (%s)", spec.Name, spec.Pattern, spec.Pkg, s.name)
			}
			for bench, byUnit := range meas {
				for unit, vs := range byUnit {
					for _, v := range vs {
						s.meas.add(bench, unit, v)
					}
				}
			}
		}
	}
	return sides[0].meas, sides[1].meas, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

// tail returns the last n bytes of b as a string, for error context.
func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
