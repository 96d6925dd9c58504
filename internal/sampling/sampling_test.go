package sampling

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/isa"
	"fxa/internal/sweep"
	"fxa/internal/workload"
)

func TestSampledEstimateMatchesLongRun(t *testing.T) {
	w, _ := workload.ByName("hmmer") // steady-state kernel
	// Long reference run.
	trace, err := w.NewTrace(200_000)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Run(context.Background(), config.HalfFX(), trace, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sampled: 5 windows of 20k spaced by 15k skips (~35% detail).
	sum, err := Run(context.Background(), config.HalfFX(), w, Config{Intervals: 5, IntervalInsts: 20_000, SkipInsts: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	refIPC := ref.Counters.IPC()
	if d := sum.MeanIPC/refIPC - 1; d < -0.15 || d > 0.15 {
		t.Errorf("sampled IPC %.3f deviates %.0f%% from reference %.3f", sum.MeanIPC, 100*d, refIPC)
	}
	if sum.CoV() > 0.25 {
		t.Errorf("steady workload CoV %.2f too high", sum.CoV())
	}
	if got := len(sum.PerInterval); got != 5 {
		t.Errorf("got %d intervals, want 5", got)
	}
	if sum.Aggregate.Committed != 5*20_000 {
		t.Errorf("aggregate committed %d, want 100000", sum.Aggregate.Committed)
	}
}

func TestSamplingAdvancesArchitecturalState(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	sum, err := Run(context.Background(), config.Big(), w, Config{Intervals: 3, IntervalInsts: 5_000, SkipInsts: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PerInterval) != 3 {
		t.Fatalf("got %d intervals", len(sum.PerInterval))
	}
}

func TestSamplingOnInOrderCore(t *testing.T) {
	w, _ := workload.ByName("gcc")
	sum, err := Run(context.Background(), config.Little(), w, Config{Intervals: 2, IntervalInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanIPC <= 0 {
		t.Error("no progress on LITTLE")
	}
}

func TestSamplingValidation(t *testing.T) {
	w, _ := workload.ByName("gcc")
	if _, err := Run(context.Background(), config.Big(), w, Config{Intervals: 0, IntervalInsts: 100}); err == nil {
		t.Error("zero intervals must be rejected")
	}
	if _, err := Run(context.Background(), config.Big(), w, Config{Intervals: 1, IntervalInsts: 0}); err == nil {
		t.Error("zero window length must be rejected")
	}
}

// badWordMachine builds a machine whose program is straight-line nops with
// one undecodable word at dynamic-instruction index badAt, so the sampling
// schedule hits it at a precisely known point.
func badWordMachine(t *testing.T, badAt int) *emu.Machine {
	t.Helper()
	src := strings.Repeat("\tnop\n", 40) + "\thalt\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bad := uint32(0xffffffff)
	for {
		if _, derr := isa.Decode(bad); derr != nil {
			break
		}
		bad--
	}
	m := emu.New(prog)
	m.Mem.Write32(prog.Entry+uint64(badAt)*4, bad)
	return m
}

// TestSamplingErrorNamesWindow pins the error-context contract: a failure
// during the sampling schedule must say which window and which stage of
// the schedule reached the faulting PC, not just the bare emulator error.
func TestSamplingErrorNamesWindow(t *testing.T) {
	// Schedule: skip 3 (insts 0-2), window 4 (insts 3-6), skip 3
	// (7-9), window 4 (10-13), ...
	cfg := Config{Intervals: 3, IntervalInsts: 4, SkipInsts: 3}
	cases := []struct {
		name  string
		badAt int
		want  string
	}{
		{"in-first-skip", 1, "fast-forward before window 0"},
		{"in-first-window", 4, "advance through window 0"},
		{"in-second-skip", 8, "fast-forward before window 1"},
		{"in-second-window", 12, "advance through window 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := run(context.Background(), config.Big(), "t", badWordMachine(t, c.badAt), cfg)
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
			if !strings.Contains(err.Error(), "PC 0x") {
				t.Errorf("error %q does not name the faulting PC", err)
			}
		})
	}
}

func TestParallelSamplingMatchesSerial(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	cfg := Config{Intervals: 6, IntervalInsts: 8_000, SkipInsts: 12_000}

	cfg.Workers = 1
	serial, err := Run(context.Background(), config.HalfFX(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := Run(context.Background(), config.HalfFX(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run metrics (wall clock, worker count, allocation deltas) differ
	// between runs by nature; the determinism contract covers the
	// simulation results. But both schedules must have fast-forwarded the
	// same instruction stream.
	if serial.FFInsts() != parallel.FFInsts() || serial.FFInsts() == 0 {
		t.Fatalf("fast-forward insts: serial %d, parallel %d",
			serial.FFInsts(), parallel.FFInsts())
	}
	serial.Sweep, parallel.Sweep = sweep.Stats{}, sweep.Stats{}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sampling differs from serial sampling")
	}
	if len(serial.PerInterval) != 6 {
		t.Fatalf("got %d intervals, want 6", len(serial.PerInterval))
	}
}
