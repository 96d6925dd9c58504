package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	_ "fxa/internal/core"
	"fxa/internal/emu"
	"fxa/internal/engine"
	_ "fxa/internal/inorder"
	"fxa/internal/isa"
)

// TestRunFailsOnTraceFault: a stream that faults mid-run just ends from
// the timing core's point of view, and the pipeline drains as if the
// program had finished. engine.Run must fail the run with the stream's
// error instead of returning the truncated Result.
func TestRunFailsOnTraceFault(t *testing.T) {
	const body, badSlot = 400, 250
	prog := asm.MustAssemble(strings.Repeat("\taddi r1, r1, 1\n", body) + "\thalt\n")
	bad := uint32(0xffffffff)
	for {
		if _, err := isa.Decode(bad); err != nil {
			break
		}
		bad--
	}
	for _, m := range []config.Model{config.Big(), config.Little()} {
		t.Run(m.Name, func(t *testing.T) {
			machine := emu.New(prog)
			machine.Mem.Write32(prog.Entry+badSlot*4, bad)
			stream := emu.NewStream(machine, 0)
			res, err := engine.Run(context.Background(), m, stream, engine.Options{})
			if stream.Err() == nil {
				t.Fatal("the planted word did not fault the stream")
			}
			if !errors.Is(err, stream.Err()) {
				t.Fatalf("engine.Run err = %v, want it to wrap the stream's %v", err, stream.Err())
			}
			if res.Counters.Committed != 0 {
				t.Errorf("a failed run returned a Result with %d committed instructions", res.Counters.Committed)
			}
		})
	}
}
