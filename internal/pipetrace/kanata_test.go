package pipetrace

import (
	"context"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/core"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

func runTraced(t *testing.T, m config.Model, src string) (string, engine.Result) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	co, err := core.New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	k := NewKanata(&sb)
	co.SetProbe(k)
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String(), res
}

const loop = `
	li r9, 50
loop:	addi r1, r1, 1
	add  r2, r2, r1
	addi r9, r9, -1
	bgt  r9, loop
	halt
`

func TestKanataStructure(t *testing.T) {
	out, res := runTraced(t, config.HalfFX(), loop)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Kanata\t0004" {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "C=\t") {
		t.Fatalf("missing initial cycle: %q", lines[1])
	}
	var starts, retires, flushes int
	stages := map[string]int{}
	for _, l := range lines[2:] {
		f := strings.Split(l, "\t")
		switch f[0] {
		case "I":
			starts++
		case "S":
			stages[f[3]]++
		case "R":
			retires++
			if f[3] == "1" {
				flushes++
			}
		}
	}
	committed := int(res.Counters.Committed)
	if starts != committed+flushes {
		t.Errorf("instances %d != committed %d + flushes %d", starts, committed, flushes)
	}
	if retires != starts {
		t.Errorf("retires %d != instances %d (leaked live instructions)", retires, starts)
	}
	// Every committed instruction passes F, Rn, X0 and Cm on an FX model.
	for _, st := range []string{"F", "Rn", "X0", "Cm"} {
		if stages[st] < committed {
			t.Errorf("stage %s seen %d times, want >= %d", st, stages[st], committed)
		}
	}
	// Some instructions must reach the IQ path too (Ds/Is).
	if stages["Ds"] == 0 || stages["Is"] == 0 {
		t.Errorf("expected some dispatches/issues, got %v", stages)
	}
}

func TestKanataStageBalance(t *testing.T) {
	out, _ := runTraced(t, config.Big(), loop)
	var s, e int
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "S\t") {
			s++
		}
		if strings.HasPrefix(l, "E\t") {
			e++
		}
	}
	if s != e {
		t.Errorf("unbalanced stage begin/end: %d S vs %d E", s, e)
	}
}

func TestKanataClockMonotonic(t *testing.T) {
	out, _ := runTraced(t, config.HalfFX(), loop)
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "C\t") {
			var d int64
			if _, err := fscan(l[2:], &d); err != nil || d <= 0 {
				t.Fatalf("bad clock advance %q", l)
			}
		}
	}
}

func fscan(s string, d *int64) (int, error) {
	n := 0
	var v int64
	for ; n < len(s) && s[n] >= '0' && s[n] <= '9'; n++ {
		v = v*10 + int64(s[n]-'0')
	}
	if n == 0 {
		return 0, errNoDigit
	}
	*d = v
	return n, nil
}

var errNoDigit = &scanError{}

type scanError struct{}

func (*scanError) Error() string { return "no digits" }

func TestKanataFlushEvents(t *testing.T) {
	// Program with memory-order violations (see core's replay test).
	src := `
	li   r9, 50
	lda  r8, buf
	li   r7, 640
	li   r6, 10
loop:	div  r1, r7, r6
	add  r2, r8, r1
	li   r3, 99
	st   r3, 0(r2)
	ld   r4, 64(r8)
	add  r5, r4, r4
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 256
	`
	out, res := runTraced(t, config.Big(), src)
	if res.Counters.Replays == 0 {
		t.Skip("no replay occurred; nothing to check")
	}
	if !strings.Contains(out, "\t1\n") {
		t.Error("expected flush retire events (type 1) in the trace")
	}
}

func TestTextDiagram(t *testing.T) {
	prog, err := asm.Assemble(`
	addi r1, r31, 1
	addi r2, r1, 2
	add  r3, r1, r2
	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	co, err := core.New(config.HalfFX(), emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	tx := NewText(16)
	co.SetProbe(tx)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := tx.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("diagram has %d rows, want 4:\n%s", len(lines), out)
	}
	for _, want := range []string{"addi r1, r31, 1", "F", "Rn", "X0", "Cm"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	// Rows appear in program order with increasing first-stage offsets or
	// equal (same fetch group).
	if !strings.Contains(lines[0], "F") {
		t.Errorf("first row lacks fetch stage: %s", lines[0])
	}
}

func TestTextCapsRows(t *testing.T) {
	prog, err := asm.Assemble(`
	li r9, 100
loop:	addi r9, r9, -1
	bgt r9, loop
	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	co, err := core.New(config.Big(), emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	tx := NewText(8)
	co.SetProbe(tx)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(tx.String(), "\n"); n > 8 {
		t.Errorf("diagram has %d rows, cap is 8", n)
	}
}
