package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// runWithCommitKeyedFlushes runs prog on m injecting random suffix
// squashes like runWithInjectedFlushes, but keyed on the committed
// instruction count instead of the cycle number. Commits happen at
// identical cycles in skip-on and skip-off runs and commit cycles are
// always iterated (never jumped over), so the injection points — and
// therefore the entire run — must be bit-identical across the two modes.
func runWithCommitKeyedFlushes(m config.Model, prog *asm.Program, flushSeed int64, every uint64, skip bool) (*Core, engine.Result, int, error) {
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		return nil, engine.Result{}, 0, err
	}
	co.SetIdleSkip(skip)
	r := rand.New(rand.NewSource(flushSeed))
	const maxInjected = 50
	injected := 0
	next := every
	co.debug = func() {
		if injected >= maxInjected || co.c.Committed < next || co.rob.Len() == 0 {
			return
		}
		k := r.Intn(co.rob.Len())
		co.flushFrom(co.rob.At(k).rec.Seq, co.cycle)
		injected++
		next = co.c.Committed + every + uint64(r.Intn(int(every)))
	}
	res, err := co.Run(context.Background())
	return co, res, injected, err
}

// TestSkipDifferentialInjectedFlushes proves skip ≡ tick under randomly
// injected flushes on every fuzz model variant: the full engine.Result of a
// skip-on run equals the skip-off run bit for bit, flushes included.
func TestSkipDifferentialInjectedFlushes(t *testing.T) {
	progSeeds := []int64{3, 1234}
	if testing.Short() {
		progSeeds = progSeeds[:1]
	}
	for _, progSeed := range progSeeds {
		prog, err := asm.Assemble(generate(progSeed, 120, 40))
		if err != nil {
			t.Fatalf("seed %d: %v", progSeed, err)
		}
		golden := emu.New(prog)
		want, err := golden.Run(10_000_000)
		if err != nil || !golden.Halt {
			t.Fatalf("seed %d emulate: %v (halt=%v)", progSeed, err, golden.Halt)
		}
		for variant := uint8(0); variant < 5; variant++ {
			m := flushFuzzModel(variant)
			label := fmt.Sprintf("seed %d on %s", progSeed, m.Name)
			seed := progSeed*37 + int64(variant)
			coOn, on, injOn, err := runWithCommitKeyedFlushes(m, prog, seed, 40, true)
			if err != nil {
				t.Fatalf("%s skip-on: %v", label, err)
			}
			coOff, off, injOff, err := runWithCommitKeyedFlushes(m, prog, seed, 40, false)
			if err != nil {
				t.Fatalf("%s skip-off: %v", label, err)
			}
			if injOn == 0 {
				t.Errorf("%s: no flushes injected (scenario vacuous)", label)
			}
			if injOn != injOff {
				t.Errorf("%s: injected %d flushes skip-on, %d skip-off", label, injOn, injOff)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("%s: results diverge:\nskip-on:  %+v\nskip-off: %+v", label, on.Counters, off.Counters)
			}
			checkFlushRun(t, label+" skip-on", coOn, on, want)
			checkFlushRun(t, label+" skip-off", coOff, off, want)
			if sc, _ := coOn.SkipStats(); sc == 0 {
				t.Errorf("%s: skip-on run skipped nothing (scenario vacuous)", label)
			}
		}
	}
}

// TestStepBudgetExact pins the Step contract under skipping: a Step(b)
// call that does not finish the run advances the cycle counter by exactly
// b — an idle jump that would overshoot the budget must clamp to it, so
// engine.Drive's check-slice cadence (cancellation, interval cuts) is
// unchanged by skipping.
func TestStepBudgetExact(t *testing.T) {
	src := `
	li r21, 200
	li r1, 0x100000
	li r2, 4096
loop:	ld r3, 0(r1)
	add r1, r1, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	prog := asm.MustAssemble(src)
	m := config.HalfFX()
	m.MSHRs = 1 // serialized fills: long idle spans that would overshoot
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int64{1, 3, 7, 64, 4096, 5, 2}
	for i := 0; ; i++ {
		b := budgets[i%len(budgets)]
		start := co.cycle
		done, err := co.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		delta := co.cycle - start
		if done {
			if delta > b {
				t.Fatalf("final Step(%d) advanced %d cycles", b, delta)
			}
			break
		}
		if delta != b {
			t.Fatalf("Step(%d) advanced %d cycles at cycle %d", b, delta, co.cycle)
		}
		if i > 1_000_000 {
			t.Fatal("run did not finish")
		}
	}
	if sc, _ := co.SkipStats(); sc == 0 {
		t.Error("no cycles skipped (budget-clamp scenario vacuous)")
	}
}
