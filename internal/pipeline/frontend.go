package pipeline

import (
	"fxa/internal/bpred"
	"fxa/internal/decodecache"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/mem"
	"fxa/internal/stats"
)

// Frontend is the shared fetch/predict/decode path of a timing core. It
// owns every piece of front-end state whose behaviour is identical across
// cores: the batched trace reader, the per-PC decode cache (with
// code-generation hygiene), the I-cache line tracking and fetch-stall
// clock, the unget slot for records bounced by an I-cache miss, and the
// flush-replay buffer the out-of-order core refills on memory-order
// violations.
//
// The per-cycle loop (FetchCycle) reproduces the cores' historical fetch
// stage exactly: up to width instructions per cycle while the core-owned
// queue has room, one I-cache access per new line, fetch groups ending at
// taken branches, predictor consultation per the bpred redirect contract,
// and a stall until resolution after a mispredicted branch (the core
// tracks the blocking instruction; Frontend only needs the blocked bit).
type Frontend struct {
	// BP is the branch predictor consulted at fetch.
	BP *bpred.Predictor
	// Mem is the cache hierarchy (instruction side).
	Mem *mem.Hierarchy
	// TR is the shared batched-trace consumer (engine layer).
	TR engine.TraceReader

	// FetchStall gates fetch: records flow only when cycle >= FetchStall
	// (I-cache refills, decode-stage target redirects, post-resolution
	// redirect bubbles all push it forward via StallUntil).
	FetchStall int64

	// CondBTBAlways selects the BTB discipline for taken conditional
	// branches whose direction was mispredicted. The out-of-order front
	// end accesses the BTB in parallel with direction prediction, so the
	// BTB trains (and its statistics count) even on a direction
	// misprediction; the in-order cores short-circuit the target lookup
	// once the direction check fails. bpred.PredictTarget mutates BTB
	// state on every call, so this knob is load-bearing for bit-exact
	// predictor statistics — it is part of each core's modelled
	// behaviour, not a tuning flag.
	CondBTBAlways bool

	// dec memoizes per-PC static decode templates; lastGen is the trace
	// code-write generation the tables were built against, re-checked
	// once per Step slice (SyncDecodeCache).
	dec     decodecache.Cache
	codeGen engine.CodeGenTrace
	lastGen uint64

	// lastLine is the last I-cache line fetched (+1 so 0 means none).
	lastLine uint64

	// pendingRec is a record fetched from the trace but bounced back by
	// an I-cache miss, stored by value (no per-miss heap box).
	pendingRec emu.Record
	hasPending bool

	// replay holds flushed records awaiting re-fetch in program order;
	// replayHead is the consumption index (no reslicing, so the backing
	// array is reusable across flushes).
	replay     []emu.Record
	replayHead int
}

// Init binds the front end to its predictor, hierarchy and trace.
// condBTBAlways selects the conditional-branch BTB discipline (see the
// field comment).
func (f *Frontend) Init(bp *bpred.Predictor, h *mem.Hierarchy, trace engine.Trace, condBTBAlways bool) {
	f.BP = bp
	f.Mem = h
	f.TR = engine.NewTraceReader(trace)
	f.CondBTBAlways = condBTBAlways
	if g, ok := trace.(engine.CodeGenTrace); ok {
		f.codeGen = g
		f.lastGen = g.CodeGen()
	}
}

// SyncDecodeCache drops decode templates built before the trace's last
// code write. Called once per Step slice; correctness never depends on it
// — Lookup re-validates every slot against the record's Inst — it just
// keeps a self-modifying program from accumulating dead pages.
func (f *Frontend) SyncDecodeCache() {
	if f.codeGen == nil {
		return
	}
	if g := f.codeGen.CodeGen(); g != f.lastGen {
		f.lastGen = g
		f.dec.Invalidate()
	}
}

// nextRec returns the next record to fetch — a previously stalled record,
// then replayed (flushed) records, then the live trace — or nil when none
// is left. The record stays in the front end's or the trace reader's
// storage and is valid until the next nextRec, Requeue or DropReplay
// call; the fetch loop hands it to the core, which copies it.
func (f *Frontend) nextRec() *emu.Record {
	if f.hasPending {
		f.hasPending = false
		return &f.pendingRec
	}
	if f.replayHead < len(f.replay) {
		r := &f.replay[f.replayHead]
		f.replayHead++
		if f.replayHead == len(f.replay) {
			// Fully consumed: reset so the buffer is reusable by the
			// next flush without reallocating (r stays readable until
			// the next Requeue overwrites the backing array).
			f.replay = f.replay[:0]
			f.replayHead = 0
		}
		return r
	}
	return f.TR.Next()
}

// Unget pushes a copy of a record back so the next fetch cycle retries
// it.
func (f *Frontend) Unget(r *emu.Record) {
	f.pendingRec = *r
	f.hasPending = true
}

// MoreToFetch reports whether any record remains to be fetched — pending,
// replayed, or live.
func (f *Frontend) MoreToFetch() bool {
	return f.hasPending || f.replayHead < len(f.replay) || !f.TR.Done()
}

// Drained reports the front end fully exhausted: trace done, no pending
// record, no queued replays. Part of every core's drain condition.
func (f *Frontend) Drained() bool {
	return !f.hasPending && f.replayHead == len(f.replay) && f.TR.Done()
}

// StallUntil pushes the fetch-stall clock forward to c (never backward).
func (f *Frontend) StallUntil(c int64) {
	if c > f.FetchStall {
		f.FetchStall = c
	}
}

// Requeue installs recs — squashed records in program order, collected by
// the core's flush walk — as the new replay buffer, appending the pending
// record and the unconsumed tail of the previous buffer (both younger
// than any squashed instruction), and returns the old backing array as
// scratch for the next flush. It also forgets the current I-cache line,
// so the first post-redirect fetch re-accesses it.
func (f *Frontend) Requeue(recs []emu.Record) []emu.Record {
	if f.hasPending {
		recs = append(recs, f.pendingRec)
		f.hasPending = false
	}
	recs = append(recs, f.replay[f.replayHead:]...)
	scratch := f.replay[:0]
	f.replay = recs
	f.replayHead = 0
	f.lastLine = 0
	return scratch
}

// DropReplay discards every queued record (abort path).
func (f *Frontend) DropReplay() {
	f.replay = f.replay[:0]
	f.replayHead = 0
	f.hasPending = false
}

// FetchCycle runs one cycle of the fetch stage: up to width instructions
// while room lasts, predictor consultation for branches, fetch groups
// ending at taken branches or a misprediction. blocked reflects the
// core's unresolved-mispredict gate. For each admitted instruction the
// admit callback receives the record (valid only during the call — copy,
// don't retain), its static decode template (valid until the next Lookup
// — copy, don't retain), and whether the branch mispredicted; the
// callback owns queue insertion and any core-specific bookkeeping (uop
// allocation, blocking-branch tracking, probes).
//
// Returns whether anything was fetched this cycle (including a record
// bounced by an I-cache miss), i.e. whether the cycle was active.
func (f *Frontend) FetchCycle(cycle int64, blocked bool, width, room int, c *stats.Counters,
	admit func(rec *emu.Record, st *decodecache.Static, mispred bool)) bool {
	if blocked || cycle < f.FetchStall {
		return false
	}
	fetched := false
	for n := 0; n < width && room > 0; n++ {
		rec := f.nextRec()
		if rec == nil {
			return fetched
		}
		fetched = true
		// Instruction cache: access once per new line.
		line := rec.PC >> LineShift
		if line+1 != f.lastLine {
			lat := f.Mem.InstFetch(rec.PC)
			f.lastLine = line + 1
			hit := f.Mem.L1I.Config().HitLatency
			if lat > hit {
				// Line miss: this instruction arrives when the fill
				// completes.
				f.FetchStall = cycle + int64(lat-hit)
				f.Unget(rec)
				return true
			}
		}
		st := f.dec.Lookup(rec.PC, rec.Inst)
		mispred := false
		if st.IsBranch {
			mispred = f.predictBranch(cycle, rec, st, c)
		}
		admit(rec, st, mispred)
		room--
		c.FetchedInsts++
		c.DecodeOps++
		if mispred {
			return true // nothing younger is on the correct path yet
		}
		if rec.Taken {
			return true // fetch groups end at taken branches
		}
	}
	return fetched
}

// predictBranch consults the predictor for one fetched branch and returns
// whether it mispredicted (direction or target). Decode-stage target
// redirects (direction right, BTB miss) push FetchStall by two cycles.
func (f *Frontend) predictBranch(cycle int64, rec *emu.Record, st *decodecache.Static, c *stats.Counters) bool {
	c.Branches++
	mispred := false
	switch {
	case st.IsCond:
		_, correct := f.BP.PredictConditional(rec.PC, rec.Taken)
		mispred = !correct
		if rec.Taken && (f.CondBTBAlways || !mispred) {
			if !f.BP.PredictTarget(rec.PC, rec.NextPC) && !mispred {
				// Direction right but target unknown at fetch:
				// decode-stage redirect bubble.
				f.FetchStall = cycle + 2
			}
		}
	case st.IsUncond:
		if !f.BP.PredictTarget(rec.PC, rec.NextPC) {
			f.FetchStall = cycle + 2
		}
	default: // indirect jump
		if st.IsReturn {
			// Non-linking jump = return: predict via the RAS.
			if !f.BP.Return(rec.PC, rec.NextPC) {
				mispred = true
			}
		} else {
			// Linking jump = call: target from the BTB, return address
			// pushed for the matching return.
			if !f.BP.PredictTarget(rec.PC, rec.NextPC) {
				mispred = true
			}
			f.BP.Call(rec.PC + 4)
		}
	}
	if mispred {
		c.BranchMispredicts++
	}
	return mispred
}

// FetchEvent contributes the fetch stage's next-event candidate to an
// idle-jump scan: when fetch is not gated by an unresolved mispredict
// (blocked — resolution is an execution event) nor by queue space (room —
// freed by a rename/issue event) and anything remains to fetch, the next
// fetch happens at FetchStall.
func (f *Frontend) FetchEvent(blocked, room bool, ev func(int64)) {
	if !blocked && room && f.MoreToFetch() {
		ev(f.FetchStall)
	}
}
