package fxa

// Interval-metrics invariants, enforced for every model × kernel pair:
//
//  1. The interval series partitions the run exactly — summing every
//     interval's counter and cache-stat deltas reproduces the final
//     Result bit-for-bit, and the tail interval ends at the run's final
//     cycle/instruction position.
//  2. Collection is observation-only: a run driven with intervals
//     enabled produces exactly the same Result (minus the series) as
//     the same run without them.

import (
	"context"
	"reflect"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/mem"
	"fxa/internal/stats"
)

func addCache(a, b mem.CacheStats) mem.CacheStats {
	return mem.CacheStats{
		Reads:      a.Reads + b.Reads,
		Writes:     a.Writes + b.Writes,
		ReadMiss:   a.ReadMiss + b.ReadMiss,
		WriteMiss:  a.WriteMiss + b.WriteMiss,
		Writebacks: a.Writebacks + b.Writebacks,
		Prefetches: a.Prefetches + b.Prefetches,
	}
}

func TestIntervalInvariant(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		for _, m := range allKindModels(t) {
			m := m
			t.Run(name+"/"+m.Name, func(t *testing.T) {
				checkIntervalInvariant(t, m, prog, goldenInsts, 10_000)
			})
		}
	}
}

// TestIntervalInvariantMemBound re-checks both invariants on single-MSHR
// variants of every model with a small interval length: serialized fills
// leave idle spans of hundreds of cycles, so the timing loop's idle jumps
// routinely land past an interval boundary and the boundary bookkeeping
// (end cycle, per-interval deltas) must be cut at identical positions
// regardless.
func TestIntervalInvariantMemBound(t *testing.T) {
	path := testKernels(t)[0]
	name, prog := compileKernel(t, path)
	for _, base := range allKindModels(t) {
		m := base
		m.MSHRs = 1
		t.Run(name+"/"+m.Name+"/mshr1", func(t *testing.T) {
			checkIntervalInvariant(t, m, prog, goldenInsts, 2_000)
		})
	}
}

// checkIntervalInvariant runs prog on m with interval collection and
// asserts both invariants of the suite header.
func checkIntervalInvariant(t *testing.T, m Model, prog *asm.Program, insts, every uint64) {
	t.Helper()
	trace := emu.NewStream(emu.New(prog), insts)
	res, err := Run(context.Background(), Spec{Model: m, Trace: trace, IntervalInsts: every})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no intervals collected")
	}

	// (1) Partition: deltas sum to the final statistics.
	var sum stats.Counters
	var l1i, l1d, l2 mem.CacheStats
	var dram uint64
	var prevInst, prevCycle uint64
	for i := range res.Intervals {
		iv := &res.Intervals[i]
		if iv.Index != i {
			t.Errorf("interval %d carries index %d", i, iv.Index)
		}
		if iv.EndInst <= prevInst {
			t.Errorf("interval %d: EndInst %d not increasing past %d", i, iv.EndInst, prevInst)
		}
		if iv.EndCycle < prevCycle {
			t.Errorf("interval %d: EndCycle %d went backwards from %d", i, iv.EndCycle, prevCycle)
		}
		prevInst, prevCycle = iv.EndInst, iv.EndCycle
		sum.Add(&iv.Counters)
		l1i = addCache(l1i, iv.L1I)
		l1d = addCache(l1d, iv.L1D)
		l2 = addCache(l2, iv.L2)
		dram += iv.DRAM
	}
	if !reflect.DeepEqual(sum, res.Counters) {
		t.Errorf("summed interval counters differ from the run's final counters:\nsum:   %+v\nfinal: %+v", sum, res.Counters)
	}
	if l1i != res.L1I || l1d != res.L1D || l2 != res.L2 || dram != res.DRAM {
		t.Error("summed interval cache deltas differ from the run's final cache stats")
	}
	last := &res.Intervals[len(res.Intervals)-1]
	if last.EndInst != res.Counters.Committed || last.EndCycle != res.Counters.Cycles {
		t.Errorf("tail interval ends at (cycle %d, inst %d), run at (%d, %d)",
			last.EndCycle, last.EndInst, res.Counters.Cycles, res.Counters.Committed)
	}

	// (2) Observation-only: same run without collection.
	ref, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(emu.New(prog), insts)})
	if err != nil {
		t.Fatal(err)
	}
	bare := res
	bare.Intervals = nil
	if !reflect.DeepEqual(bare, ref) {
		t.Errorf("interval collection perturbed the result:\nwith:    %+v\nwithout: %+v", bare, ref)
	}
}
