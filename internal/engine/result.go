package engine

import (
	"fxa/internal/bpred"
	"fxa/internal/mem"
	"fxa/internal/stats"
)

// ResultSchemaVersion identifies the serialized Result layout. Version 1
// was the untagged result of the pre-engine internal/core; version 2
// added the JSON tags, the embedded schema version and the interval
// series. Bump it together with sweep.SimVersion whenever the serialized
// shape changes, so cached results and golden files are never misread
// across generations.
const ResultSchemaVersion = 2

// Result bundles everything a simulation run produces, independent of
// which timing engine produced it. It is the unit stored in the sweep
// result cache and recorded by the golden-result suite, so the layout is
// schema-versioned and every field is JSON-tagged.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Model         string `json:"model"`

	Counters stats.Counters `json:"counters"`

	L1I  mem.CacheStats `json:"l1i"`
	L1D  mem.CacheStats `json:"l1d"`
	L2   mem.CacheStats `json:"l2"`
	DRAM uint64         `json:"dram_accesses"`

	Bpred    bpred.Stats         `json:"bpred"`
	StoreSet bpred.StoreSetStats `json:"store_set"`

	// Intervals is the time-series view of the run: one entry per
	// IntervalInsts committed instructions (see Options), each holding
	// the counter deltas accumulated within that interval. Empty unless
	// the run was driven with interval collection enabled. The deltas
	// partition the run exactly: summing every interval's Counters
	// reproduces the final Counters (test-enforced).
	Intervals []Interval `json:"intervals,omitempty"`

	// Warmup is the detailed-warm-up prefix of the run — the counter and
	// cache deltas accumulated before the Options.WarmupInsts mark — so
	// measurement can exclude cold-start work (WarmExcluded). Nil unless
	// the run was driven with a warm-up mark. The field is an optional
	// schema-v2 extension: absent it serializes to exactly the v2 bytes,
	// so pre-existing goldens and cached results remain bit-identical
	// (warm-up-marked runs are never cached — the mark is part of the
	// observation, not the simulation).
	Warmup *Interval `json:"warmup,omitempty"`
}

// WarmExcluded returns the measured view of the run: the cumulative
// result minus the detailed-warm-up prefix (Warmup). Counters, cache
// stats and DRAM accesses are subtracted; the branch-predictor and
// store-set summaries remain whole-run (their stats are not deltas and
// carry no energy weight), and the interval series is dropped — it
// partitions the whole run, not the measured suffix. With no warm-up
// mark the result is returned unchanged.
func (r *Result) WarmExcluded() Result {
	out := *r
	if r.Warmup == nil {
		return out
	}
	out.Counters.Sub(&r.Warmup.Counters)
	out.L1I = r.L1I.Sub(r.Warmup.L1I)
	out.L1D = r.L1D.Sub(r.Warmup.L1D)
	out.L2 = r.L2.Sub(r.Warmup.L2)
	out.DRAM = r.DRAM - r.Warmup.DRAM
	out.Intervals = nil
	out.Warmup = nil
	return out
}

// Interval is one slice of a run's interval-metrics series. Counter and
// cache fields are deltas over the interval; EndCycle/EndInst are
// cumulative positions, and the occupancy fields are instantaneous
// samples taken at the interval boundary.
type Interval struct {
	Index    int    `json:"index"`
	EndCycle uint64 `json:"end_cycle"` // cumulative cycles at the boundary
	EndInst  uint64 `json:"end_inst"`  // cumulative committed instructions

	Counters stats.Counters `json:"counters"` // deltas within the interval

	L1I  mem.CacheStats `json:"l1i"` // deltas
	L1D  mem.CacheStats `json:"l1d"`
	L2   mem.CacheStats `json:"l2"`
	DRAM uint64         `json:"dram_accesses"`

	ROBOcc int `json:"rob_occ"` // instantaneous at the boundary
	IQOcc  int `json:"iq_occ"`
}

// IPC returns the interval's committed instructions per cycle.
func (iv *Interval) IPC() float64 { return iv.Counters.IPC() }

// IXURate returns the fraction of the interval's committed instructions
// executed in the IXU.
func (iv *Interval) IXURate() float64 { return iv.Counters.IXURate() }

// BranchMPKI returns branch mispredicts per kilo-instruction within the
// interval.
func (iv *Interval) BranchMPKI() float64 { return iv.Counters.MPKI() }

// L1DMPKI returns L1D misses per kilo-instruction within the interval.
func (iv *Interval) L1DMPKI() float64 { return mpki(iv.L1D.Misses(), iv.Counters.Committed) }

// L2MPKI returns L2 misses per kilo-instruction within the interval.
func (iv *Interval) L2MPKI() float64 { return mpki(iv.L2.Misses(), iv.Counters.Committed) }

func mpki(events, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(insts)
}

// delta returns the per-interval difference cur − prev as an Interval
// (occupancies and index are filled by the collector).
func delta(prev, cur *Result) Interval {
	c := cur.Counters
	c.Sub(&prev.Counters)
	return Interval{
		EndCycle: cur.Counters.Cycles,
		EndInst:  cur.Counters.Committed,
		Counters: c,
		L1I:      cur.L1I.Sub(prev.L1I),
		L1D:      cur.L1D.Sub(prev.L1D),
		L2:       cur.L2.Sub(prev.L2),
		DRAM:     cur.DRAM - prev.DRAM,
	}
}
