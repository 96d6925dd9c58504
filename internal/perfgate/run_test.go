package perfgate

import (
	"archive/tar"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestUntar: the base tree is extracted from `git archive`'s tar stream,
// which opens with a pax global header (the commit id) and lists
// directories before their files; contents and executable bits survive.
func TestUntar(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	entries := []struct {
		h    tar.Header
		body string
	}{
		{h: tar.Header{Typeflag: tar.TypeXGlobalHeader, Name: "pax_global_header", PAXRecords: map[string]string{"comment": "76d6e1b"}}},
		{h: tar.Header{Typeflag: tar.TypeDir, Name: "internal/", Mode: 0o775}},
		{h: tar.Header{Typeflag: tar.TypeReg, Name: "internal/a.go", Mode: 0o664}, body: "package a\n"},
		{h: tar.Header{Typeflag: tar.TypeReg, Name: "scripts/run.sh", Mode: 0o775}, body: "#!/bin/sh\n"},
	}
	for _, e := range entries {
		e.h.Size = int64(len(e.body))
		if err := tw.WriteHeader(&e.h); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(e.body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := untar(&buf, dir); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[2:] {
		path := filepath.Join(dir, e.h.Name)
		got, err := os.ReadFile(path)
		if err != nil || string(got) != e.body {
			t.Errorf("%s = %q, %v; want %q", e.h.Name, got, err, e.body)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if exec := fi.Mode()&0o100 != 0; exec != (e.h.Mode&0o100 != 0) {
			t.Errorf("%s: mode %v, want the executable bit of %o", e.h.Name, fi.Mode(), e.h.Mode)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "pax_global_header")); !os.IsNotExist(err) {
		t.Errorf("pax global header written as a file: %v", err)
	}
}

// TestRunnerAlternatesPairs runs the whole paired path on a throwaway
// module: the committed tree is exported and measured as base, the
// working tree's uncommitted edit as head, the sides alternate pair by
// pair, and the repository and the temporary directory are left as
// they were found.
func TestRunnerAlternatesPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two test binaries")
	}
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo := t.TempDir()
	bench := func(v string) {
		t.Helper()
		src := "package p\n\nimport \"testing\"\n\nfunc BenchmarkX(b *testing.B) { b.ReportMetric(" + v + ", \"v/op\") }\n"
		if err := os.WriteFile(filepath.Join(repo, "p", "p_test.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	if err := os.MkdirAll(filepath.Join(repo, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(repo, "go.mod"), []byte("module m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bench("1")
	git("init", "-q")
	git("add", "-A")
	git("commit", "-qm", "base")
	bench("2")
	status := git("status", "--porcelain")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repo); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	ctx := context.Background()
	baseDir, commit, err := ExportTree(ctx, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(git("rev-parse", "--short", "HEAD")); commit != want {
		t.Errorf("commit = %q, want %q", commit, want)
	}
	var raw bytes.Buffer
	r := &Runner{Count: 2, BenchTime: "1x", RawOut: &raw}
	base, head, err := r.Run(ctx, SuiteSpec{Name: "p", Pkg: "./p", Pattern: "^BenchmarkX$"}, baseDir)
	if err != nil {
		t.Fatal(err)
	}
	os.RemoveAll(baseDir)

	if got := base["BenchmarkX"]["v/op"]; !reflect.DeepEqual(got, []float64{1, 1}) {
		t.Errorf("base samples = %v, want the committed tree's [1 1]", got)
	}
	if got := head["BenchmarkX"]["v/op"]; !reflect.DeepEqual(got, []float64{2, 2}) {
		t.Errorf("head samples = %v, want the working tree's [2 2]", got)
	}
	var order []string
	for _, line := range strings.Split(raw.String(), "\n") {
		if strings.HasPrefix(line, "# pair ") {
			order = append(order, line)
		}
	}
	if want := []string{"# pair 1 base", "# pair 1 head", "# pair 2 head", "# pair 2 base"}; !reflect.DeepEqual(order, want) {
		t.Errorf("sample order = %q, want %q", order, want)
	}
	if got := git("status", "--porcelain"); got != status {
		t.Errorf("git status changed from %q to %q", status, got)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}
