package sweep

// Cancellation promptness against real simulations: cancelling a sweep
// must interrupt the in-flight cycle-level runs themselves (the engine
// layer checks the context every engine.DefaultCheckEvery cycles), not
// merely stop dispatching queued jobs. The seed's sweep could only drain
// between jobs, so one long simulation pinned the pool until it
// finished; this test pins the new contract with jobs that would run for
// minutes if left alone.

import (
	"context"
	"errors"
	"testing"
	"time"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"

	// Registers the out-of-order core these jobs run on.
	_ "fxa/internal/core"
)

// endlessProg builds a program that runs ~100M iterations — hours of
// simulated work, so a returned sweep can only mean the cancellation
// reached into the running engines.
func endlessProg(t *testing.T) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(`
	li   r1, 100000000
	clr  r2
loop:	add  r2, r2, r1
	addi r1, r1, -1
	bgt  r1, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCancellationInterruptsInFlightSimulations(t *testing.T) {
	prog := endlessProg(t)
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{
			Label: "endless",
			Run: func(ctx context.Context) (engine.Result, error) {
				return engine.Run(ctx, config.HalfFX(), emu.NewStream(emu.New(prog), 0))
			},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	timer := time.AfterFunc(50*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer timer.Stop()

	_, _, err := Run(ctx, jobs, Options{Workers: 2})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker only had to finish its current CheckEvery-cycle slice
	// (microseconds of simulated work); the bound is generous for noisy
	// CI machines but far below the minutes a drained run would take.
	if d := returned.Sub(cancelled); d > 2*time.Second {
		t.Fatalf("sweep returned %v after cancellation, want <= 2s", d)
	}
}
