package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fxa"
	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/pipetrace"
)

// kanataProgram is a short counted loop; with bad set, an undecodable
// word (opcode byte 0xff) follows the loop, so the run faults after
// some hundred instructions.
func kanataProgram(t *testing.T, bad bool) *asm.Program {
	t.Helper()
	tail := "\thalt\n"
	if bad {
		tail = "\t.quad -1\n" + tail
	}
	prog, err := asm.Assemble(`
	li   r1, 40
loop:
	addi r2, r2, 3
	addi r1, r1, -1
	bgt  r1, loop
` + tail)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func halfFX(t *testing.T) fxa.Model {
	t.Helper()
	m, err := fxa.ModelByName("HALF+FX")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKanataFailedRunLeavesNoFile checks that a run ending in an emulator
// fault returns that fault and removes the trace it had begun.
func TestKanataFailedRunLeavesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.log")
	stream := emu.NewStream(emu.New(kanataProgram(t, true)), 0)
	_, err := writeKanata(path, halfFX(t), stream)
	if err == nil || !strings.Contains(err.Error(), "emu: at PC") || !strings.Contains(err.Error(), "undefined opcode") {
		t.Fatalf("writeKanata error = %v, want the emulator's decode fault", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Errorf("a failed run left %s behind (stat: %v)", path, serr)
	}
}

// TestKanataGoodRunFlushesTrace checks that a run to halt writes the
// whole trace: the file holds every byte the same run writes to a buffer.
func TestKanataGoodRunFlushesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.log")
	m := halfFX(t)
	res, err := writeKanata(path, m, emu.NewStream(emu.New(kanataProgram(t, false)), 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	k := pipetrace.NewKanata(&want)
	ref, err := runProbed(m, emu.NewStream(emu.New(kanataProgram(t, false)), 0), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("trace file holds %d bytes, want the %d bytes of the same run", len(got), want.Len())
	}
	if res.Counters.Committed != ref.Counters.Committed || res.Counters.Committed == 0 {
		t.Errorf("committed %d, reference run %d", res.Counters.Committed, ref.Counters.Committed)
	}
}
