package pipeline

import (
	"testing"

	"fxa/internal/engine"
	"fxa/internal/isa"
)

// TestNextEventClampsAndMins pins the bound's two defining properties:
// candidates at or before now mean "retry next cycle" (ready but
// structurally blocked), and the result is the minimum over every
// source's candidates.
func TestNextEventClampsAndMins(t *testing.T) {
	var s Skipper
	if e := s.NextEvent(100); e != FarFuture {
		t.Errorf("no sources: NextEvent = %d, want FarFuture", e)
	}
	s.AddSource(func(ev func(int64)) { ev(500); ev(90) })
	s.AddSource(func(ev func(int64)) { ev(300) })
	if e := s.NextEvent(100); e != 101 {
		t.Errorf("past candidate must clamp to now+1, got %d", e)
	}
	var s2 Skipper
	s2.AddSource(func(ev func(int64)) { ev(500); ev(300) })
	if e := s2.NextEvent(100); e != 300 {
		t.Errorf("NextEvent = %d, want min candidate 300", e)
	}
}

// TestJumpClamps pins the harness contract: a jump never exceeds the
// remaining Step budget and never crosses the watchdog deadline, zero
// jumps record no span, and non-zero jumps accumulate in SkipStats.
func TestJumpClamps(t *testing.T) {
	var wd engine.Watchdog
	wd.Progress(100)

	var s Skipper
	s.AddSource(func(ev func(int64)) { ev(101) })
	if j := s.Jump(100, 1000, &wd); j != 0 {
		t.Errorf("next event at now+1: jump = %d, want 0", j)
	}
	if c, n := s.SkipStats(); c != 0 || n != 0 {
		t.Errorf("zero jump recorded stats (%d, %d)", c, n)
	}

	var far Skipper
	far.AddSource(func(ev func(int64)) { ev(100 + 50) })
	if j := far.Jump(100, 10, &wd); j != 10 {
		t.Errorf("jump = %d, want Step-budget clamp 10", j)
	}
	if j := far.Jump(100, 0, &wd); j != 0 {
		t.Errorf("exhausted budget: jump = %d, want 0", j)
	}

	deadline := wd.Deadline()
	var wedged Skipper
	wedged.AddSource(func(ev func(int64)) { ev(deadline + 10_000) })
	if j := wedged.Jump(deadline-1, 1<<40, &wd); j != 1 {
		t.Errorf("jump = %d, want watchdog clamp 1 (deadline %d)", j, deadline)
	}

	c, n := far.SkipStats()
	if c != 10 || n != 1 {
		t.Errorf("SkipStats = (%d, %d), want (10, 1)", c, n)
	}
}

// TestFUPools pins the class→pool mapping and the two scan helpers the
// issue loops and next-event sources share.
func TestFUPools(t *testing.T) {
	f := NewFUPools(2, 1, 1)
	for cls, want := range map[isa.Class]*[]int64{
		isa.ClassIntALU: &f.Int,
		isa.ClassIntMul: &f.Int,
		isa.ClassLoad:   &f.Mem,
		isa.ClassStore:  &f.Mem,
		isa.ClassFP:     &f.FP,
		isa.ClassFPMul:  &f.FP,
		isa.ClassFPDiv:  &f.FP,
	} {
		if got := f.Pool(cls); &got[0] != &(*want)[0] {
			t.Errorf("Pool(%v) is not the expected pool", cls)
		}
	}

	f.Int[0], f.Int[1] = 40, 30
	if got := NextFree(f.Int); got != 30 {
		t.Errorf("NextFree = %d, want 30", got)
	}
	if got := FirstFree(f.Int, 29); got != -1 {
		t.Errorf("FirstFree before any unit frees = %d, want -1", got)
	}
	if got := FirstFree(f.Int, 30); got != 1 {
		t.Errorf("FirstFree = %d, want unit 1", got)
	}
	if got := FirstFree(f.Int, 99); got != 0 {
		t.Errorf("FirstFree with all free = %d, want first unit 0", got)
	}
}

// TestNextEventAllocatesNothing pins the idle scan as allocation-free: the
// candidate callback is bound once, not built per scan.
func TestNextEventAllocatesNothing(t *testing.T) {
	var s Skipper
	s.AddSource(func(ev func(int64)) { ev(500); ev(90) })
	s.AddSource(func(ev func(int64)) { ev(300) })
	now := int64(100)
	if a := testing.AllocsPerRun(100, func() { now = s.NextEvent(now) - 1 }); a != 0 {
		t.Errorf("NextEvent allocates %v objects per scan, want 0", a)
	}
}

// TestRingOrderAndTruncate pins the FIFO contract across wrap-around,
// growth and a suffix truncate, for a value ring.
func TestRingOrderAndTruncate(t *testing.T) {
	r := NewRing[int](3)
	next, head := 0, 0
	for round := 0; round < 5; round++ {
		for r.Len() < 3 {
			r.PushBack(next)
			next++
		}
		if *r.Front() != head {
			t.Fatalf("front = %d, want %d", *r.Front(), head)
		}
		r.PopFront()
		head++
	}
	r.PushBack(next) // full ring: grows
	r.PushBack(next + 1)
	if r.Len() != 4 {
		t.Fatalf("len after growth = %d, want 4", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if r.At(i) != head+i {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i), head+i)
		}
	}
	r.Truncate(1)
	if r.Len() != 1 || r.At(0) != head {
		t.Fatalf("after Truncate(1): len %d, front %d", r.Len(), r.At(0))
	}
}
