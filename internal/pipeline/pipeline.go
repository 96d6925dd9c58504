// Package pipeline is the shared stage library of the cycle-level timing
// cores (DESIGN.md §8.9). The paper's evaluation compares many models
// across two timing substrates — the out-of-order/FXA core of
// internal/core and the in-order core of internal/inorder (LITTLE and
// DUAL/DUAL-SI) — and before this layer existed each of them hand-rolled
// the same front half: batched trace consumption, per-PC decode-template
// stamping with self-modifying-code hygiene, the branch-predictor
// consultation and redirect/squash contract of the fetch stage, and a
// private copy of the event-driven idle-cycle skipping machinery
// (DESIGN.md §8.8).
//
// The package provides three building blocks:
//
//   - Frontend: the fetch/predict/decode path. It owns the
//     engine.TraceReader, the decodecache.Cache (with CodeGen-generation
//     invalidation), the I-cache line/fetch-stall state, the unget slot
//     and the flush-replay buffer, and runs the shared per-cycle fetch
//     loop; the core supplies only an admit callback that turns a record
//     plus its decode template into its own in-flight representation.
//   - Skipper: one idle-jump implementation shared by every core. Cores
//     register per-stage event sources as closures; on an idle cycle
//     Jump folds them into a conservative next-event lower bound and
//     advances time, clamped to the Step budget and the watchdog
//     deadline. Skipped spans are diagnostics (SkipStats), never part of
//     stats.Counters — skip-on and skip-off runs stay bit-identical.
//   - FUPools and BuildResult: the class→functional-unit-pool mapping
//     shared by issue/select loops and next-event scans, and the common
//     engine.Result assembly (counter cutting compatible with
//     engine.Drive's interval observer, which snapshots Result between
//     Step slices).
//
// Everything here is a pure CPU-cost refactor of the cores' structure:
// porting a core onto the package must not change a single simulated
// cycle, which the golden suite pins byte-exactly.
package pipeline

import (
	"math"

	"fxa/internal/isa"
)

// FarFuture marks a cycle that never arrives (operand not available,
// result not scheduled, no event candidate found).
const FarFuture = math.MaxInt64 / 4

// LineShift selects the fetch-line granularity: 64-byte lines.
const LineShift = 6

// FUPools holds the busy-until cycle of every functional unit, grouped by
// class pool. Shared between the issue/select loops and the next-event
// scans so the class→pool mapping can never drift between them.
type FUPools struct {
	Int []int64
	Mem []int64
	FP  []int64
}

// NewFUPools sizes the three pools.
func NewFUPools(nInt, nMem, nFP int) FUPools {
	return FUPools{
		Int: make([]int64, nInt),
		Mem: make([]int64, nMem),
		FP:  make([]int64, nFP),
	}
}

// Pool returns the pool serving an execution class.
func (f *FUPools) Pool(cls isa.Class) []int64 {
	switch cls {
	case isa.ClassLoad, isa.ClassStore:
		return f.Mem
	case isa.ClassFP, isa.ClassFPMul, isa.ClassFPDiv:
		return f.FP
	default:
		return f.Int
	}
}

// NextFree returns the earliest busy-until cycle in pool — the first cycle
// at which some unit of the class is certainly available (next-event scan).
func NextFree(pool []int64) int64 {
	free := pool[0]
	for _, busy := range pool[1:] {
		if busy < free {
			free = busy
		}
	}
	return free
}

// FirstFree returns the index of the first unit in pool free at cycle, or
// -1 when all are busy (issue-stage structural check).
func FirstFree(pool []int64, cycle int64) int {
	for i, busy := range pool {
		if busy <= cycle {
			return i
		}
	}
	return -1
}
