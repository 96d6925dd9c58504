package fxa

// Golden-result regression suite: every model of Table I is run on every
// .fxk test kernel and the full engine.Result — cycles, IPC-relevant
// counters, cache/predictor statistics, energy event counts — is compared
// bit-for-bit against a recorded JSON file under testdata/golden/.
//
// This is the safety net that lets the cycle-level hot loop be optimised
// aggressively (uop pooling, scratch-slice reuse, ring buffers — see
// DESIGN.md §8.2): any change to simulated timing, however small, fails
// this suite with the exact field that drifted.
//
// Regenerate the goldens after an *intentional* model change with:
//
//	go test -run TestGoldenResults -update .

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/minic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden result files")

// goldenInsts is the per-run dynamic instruction budget of the golden
// suite. Large enough that every kernel reaches steady state (storeheavy's
// replays, branchheavy's misprediction bursts, fpheavy's divider stalls all
// appear well before this), small enough to keep the suite fast.
const goldenInsts = 80_000

// testKernels returns the .fxk kernels under testdata/, sorted by name.
func testKernels(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.fxk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no .fxk kernels under testdata/")
	}
	sort.Strings(paths)
	return paths
}

// compileKernel compiles one .fxk file to a loadable program.
func compileKernel(t testing.TB, path string) (string, *asm.Program) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return strings.TrimSuffix(filepath.Base(path), ".fxk"), prog
}

func goldenPath(kernel, model string) string {
	// "+" is fine in filenames on every platform we build for, but keep
	// the names shell-friendly.
	m := strings.ReplaceAll(model, "+", "_")
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s__%s.json", kernel, m))
}

// marshalResult renders a Result as stable, human-diffable JSON.
func marshalResult(t testing.TB, res Result) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestGoldenResults runs all five Table I models on every test kernel and
// asserts the produced Result is bit-identical to the recorded golden.
func TestGoldenResults(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		for _, m := range allKindModels(t) {
			m := m
			t.Run(name+"/"+m.Name, func(t *testing.T) {
				res, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(emu.New(prog), goldenInsts)})
				if err != nil {
					t.Fatal(err)
				}
				got := marshalResult(t, res)
				gp := goldenPath(name, m.Name)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(gp), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(gp, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(gp)
				if err != nil {
					t.Fatalf("missing golden %s (run `go test -run TestGoldenResults -update .`): %v", gp, err)
				}
				if string(got) == string(want) {
					return
				}
				// Report exactly which fields drifted, not just "differs".
				var gv, wv any
				if err := json.Unmarshal(got, &gv); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(want, &wv); err != nil {
					t.Fatalf("corrupt golden %s: %v", gp, err)
				}
				diffs := diffJSON("", wv, gv, nil)
				if len(diffs) == 0 {
					// Same values, different formatting — still a failure:
					// the golden files are canonical.
					t.Fatalf("%s: output formatting drifted from golden", gp)
				}
				for _, d := range diffs {
					t.Errorf("%s: %s", gp, d)
				}
			})
		}
	}
}

// diffJSON walks two decoded JSON values and collects "path: golden=X got=Y"
// lines for every leaf that differs.
func diffJSON(path string, want, got any, acc []string) []string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return append(acc, fmt.Sprintf("%s: golden=%v got=%v", path, want, got))
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, dup := w[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			wv, wok := w[k]
			gv, gok := g[k]
			switch {
			case !wok:
				acc = append(acc, fmt.Sprintf("%s: golden=<absent> got=%v", p, gv))
			case !gok:
				acc = append(acc, fmt.Sprintf("%s: golden=%v got=<absent>", p, wv))
			default:
				acc = diffJSON(p, wv, gv, acc)
			}
		}
		return acc
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return append(acc, fmt.Sprintf("%s: golden=%v got=%v", path, want, got))
		}
		for i := range w {
			acc = diffJSON(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], acc)
		}
		return acc
	default:
		if !reflect.DeepEqual(want, got) {
			acc = append(acc, fmt.Sprintf("%s: golden=%v got=%v", path, want, got))
		}
		return acc
	}
}

// TestGoldenFilesCovered fails when a golden file exists for a kernel or
// model that is no longer part of the suite (stale goldens hide drift).
func TestGoldenFilesCovered(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	want := map[string]bool{}
	for _, path := range testKernels(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".fxk")
		for _, m := range allKindModels(t) {
			want[filepath.Base(goldenPath(name, m.Name))] = true
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no goldens recorded yet")
	}
	for _, f := range files {
		if !want[filepath.Base(f)] {
			t.Errorf("stale golden file %s (no matching kernel/model)", f)
		}
	}
	if len(files) != len(want) {
		t.Errorf("golden files: have %d, want %d (run `go test -run TestGoldenResults -update .`)", len(files), len(want))
	}
}
