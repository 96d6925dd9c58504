// Package core implements the cycle-level timing model of the out-of-order
// superscalar processor of Table I and, on top of it, the paper's
// contribution: the Front-end eXecution Architecture (FXA) with its
// in-order execution unit (IXU) placed between rename and dispatch.
//
// The model is execution-driven: a functional emulator supplies the
// committed-path dynamic instruction stream, and the timing model
// reconstructs speculation around it. Branch mispredictions stall the fetch
// stream until the branch resolves (in the IXU or the OXU) plus a redirect
// latency, so the misprediction penalty — and its reduction when the IXU
// resolves branches early (Section IV-B2) — emerges from pipeline depth.
// Memory-order violations flush and replay the in-flight window exactly as
// a store-set-protected core would (Section II-D3).
package core

import (
	"context"
	"fmt"

	"fxa/internal/bpred"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/isa"
	"fxa/internal/mem"
	"fxa/internal/pipeline"
	"fxa/internal/stats"
)

// minIssueDelay is the dispatch-to-earliest-issue depth of the scheduling
// pipeline (wakeup/select/payload stages). Together with
// Model.FrontendDepth and RedirectLatency it produces the Table I
// misprediction penalties (11 cycles for BIG).
const minIssueDelay = 2

// violationRecovery is the extra recovery latency of a memory-order
// violation flush beyond the redirect latency.
const violationRecovery = 2

// Core is one out-of-order (optionally FXA) core simulation. It
// implements engine.Engine (plus the Aborter, Releaser, OccupancyReporter
// and ProbeAttacher extensions) and registers itself for config.OutOfOrder
// from init.
type Core struct {
	cfg config.Model
	mem *mem.Hierarchy
	bp  *bpred.Predictor
	ss  *bpred.StoreSet
	c   stats.Counters

	cycle int64

	// wd is the shared deadlock watchdog (progress = a commit).
	wd engine.Watchdog

	// fe is the shared fetch/predict/decode path (internal/pipeline): the
	// batched trace reader, the per-PC decode cache, the I-cache
	// line/fetch-stall state and the flush-replay buffer all live there.
	fe pipeline.Frontend

	// Fetch state the shared front end does not own: the unresolved
	// mispredicted branch gating fetch (resolution is a core event) and
	// the flush scratch buffer.
	flushRecs  []emu.Record // scratch for flushFrom's squashed-record walk
	blockingBr *uop         // unresolved mispredicted branch gating fetch
	blockStart int64        // cycle fetch became blocked (for wrong-path accounting)

	// Front-end delay line: fetched uops waiting to reach rename.
	feQueue pipeline.Ring[*uop]

	// Rename state.
	rat      [2][isa.NumIntRegs]*uop // last in-flight producer per arch reg
	intInUse int                     // physical int registers held by in-flight uops
	fpInUse  int

	// IXU pipeline: stage 0 is the entry stage. nil-padded slots.
	ixu [][]*uop

	// OXU.
	iq  []*uop              // capacity pinned to IQEntries
	rob pipeline.Ring[*uop] // program order

	lq pipeline.Ring[*uop]
	sq pipeline.Ring[*uop]

	// pool is the uop free list; uopLive counts instances currently out
	// of it (see pool.go).
	pool    []*uop
	uopLive int

	// fu holds the per-class FU busy-until pools (internal/pipeline).
	fu pipeline.FUPools

	// memPortsThisCycle counts LSQ/L1D port grants in the current cycle;
	// the OXU issues first, so the IXU only uses leftover ports
	// (Section II-D3).
	memPortsThisCycle int

	// mshrFree holds the cycle each miss-status register frees up;
	// an L1D miss occupies one for its full duration, bounding
	// memory-level parallelism (Model.MSHRs).
	mshrFree []int64

	// Event-driven idle-cycle skipping (events.go + pipeline.Skipper).
	// active records whether any stage changed state this cycle; when it
	// stayed false, the registered event sources derive a conservative
	// lower bound on the first cycle anything can happen and the loop
	// advances co.cycle directly to just before it. The skipped spans
	// never appear in stats.Counters — results are bit-identical to the
	// tick path.
	skip   pipeline.Skipper
	active bool

	// debug, when non-nil, is invoked at the end of every simulated cycle
	// the loop actually iterates (skipped idle cycles do not fire it).
	debug func()

	// tracer, when non-nil, receives pipeline events (see tracer.go).
	tracer      engine.Probe
	nextTraceID uint64
}

// New builds a core simulation for model cfg fed by trace.
func New(cfg config.Model, trace engine.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind != config.OutOfOrder {
		return nil, fmt.Errorf("core: model %s is not an out-of-order core (both in-order kinds are internal/inorder)", cfg.Name)
	}
	co := &Core{
		cfg: cfg,
		mem: mem.NewHierarchy(cfg.Mem),
		bp:  bpred.New(cfg.Bpred),
		ss:  bpred.NewStoreSet(4096, 256),
		fu:  pipeline.NewFUPools(cfg.IntFUs, cfg.MemFUs, cfg.FPFUs),
	}
	// Capacity-pinned in-flight structures: sized once here so the hot
	// loop never grows them (DESIGN.md §8.2).
	co.rob = pipeline.NewRing[*uop](cfg.ROBEntries)
	co.lq = pipeline.NewRing[*uop](cfg.LQEntries)
	co.sq = pipeline.NewRing[*uop](cfg.SQEntries)
	co.feQueue = pipeline.NewRing[*uop](co.feCap())
	co.iq = make([]*uop, 0, cfg.IQEntries)
	// The out-of-order front end accesses the BTB in parallel with
	// direction prediction, so the BTB trains even on a direction
	// misprediction (CondBTBAlways).
	co.fe.Init(co.bp, co.mem, trace, true)
	co.skip.Enabled = true
	co.registerSkipSources()
	if cfg.FX {
		co.ixu = make([][]*uop, cfg.IXU.Stages())
		for i := range co.ixu {
			co.ixu[i] = make([]*uop, 0, cfg.FetchWidth)
		}
	}
	if cfg.MSHRs > 0 {
		co.mshrFree = make([]int64, cfg.MSHRs)
	}
	return co, nil
}

// frontDepth returns the fetch-to-rename latency in cycles: the base
// front-end depth plus one stage for FXA's sequential scoreboard→PRF read
// (Section III-B).
func (co *Core) frontDepth() int64 {
	d := int64(co.cfg.FrontendDepth)
	if co.cfg.FX {
		d++
	}
	return d
}

// feCap is the front-end queue capacity: the decode/rename pipeline depth
// plus a small fetch buffer, in instructions.
func (co *Core) feCap() int {
	return (int(co.frontDepth()) + 2) * co.cfg.FetchWidth
}

// init registers the out-of-order core with the engine layer, so any
// package that (blank-)imports internal/core can construct it through
// engine.New without referring to this package's API.
func init() {
	engine.Register(config.OutOfOrder, func(m config.Model, t engine.Trace) (engine.Engine, error) {
		return New(m, t)
	})
}

// Run simulates until the trace is exhausted and the pipeline drains,
// returning the collected statistics. It delegates to engine.Drive, so
// cancelling ctx interrupts the run within engine.DefaultCheckEvery
// simulated cycles.
func (co *Core) Run(ctx context.Context) (engine.Result, error) {
	return engine.Drive(ctx, co, engine.Options{})
}

// Step advances the simulation by at most nCycles cycles (engine.Engine).
// It returns done=true once the trace is exhausted and the pipeline has
// drained, or an error if the timing model stops making progress for
// engine.DeadlockWindow cycles.
//
// Step consumes its cycle budget exactly even when idle-cycle skipping is
// enabled: a jump that would overshoot nCycles is clamped, so
// engine.Drive's check-every cadence (context cancellation, interval
// cuts, warm-up marks) is unchanged by skipping.
func (co *Core) Step(nCycles int64) (bool, error) {
	co.fe.SyncDecodeCache()
	for n := int64(0); n < nCycles; n++ {
		co.cycle++
		co.memPortsThisCycle = 0
		co.active = false
		co.commit()
		co.issue()
		if co.cfg.FX {
			co.ixuStep()
		}
		co.rename()
		co.fetch()
		if co.debug != nil {
			co.debug()
		}
		if co.fe.Drained() && co.rob.Len() == 0 && co.feQueue.Len() == 0 && co.ixuEmpty() {
			return true, nil
		}
		if co.wd.Stuck(co.cycle) {
			return false, co.wd.Fail(co.cfg.Name, co.cycle,
				fmt.Sprintf("rob=%d iq=%d fe=%d", co.rob.Len(), len(co.iq), co.feQueue.Len()))
		}
		if co.skip.Enabled && !co.active {
			if j := co.skip.Jump(co.cycle, nCycles-1-n, &co.wd); j > 0 {
				co.cycle += j
				n += j
			}
		}
	}
	return false, nil
}

// SetIdleSkip turns idle-cycle skipping (on by default) on or off for
// this core. Skip-on and skip-off runs are bit-identical; the knob exists
// for the differential suite and debugging, not fidelity.
func (co *Core) SetIdleSkip(on bool) { co.skip.Enabled = on }

// SkipStats reports how many cycles the event-driven scheduler skipped
// and across how many idle spans. Diagnostics only — deliberately not
// part of stats.Counters, whose JSON form the goldens pin byte-exactly.
func (co *Core) SkipStats() (cycles, spans int64) { return co.skip.SkipStats() }

// Result assembles the statistics collected so far (engine.Engine). It is
// idempotent and safe to call mid-run.
func (co *Core) Result() engine.Result {
	return pipeline.BuildResult(co.cfg.Name, co.c, co.cycle, co.mem, co.bp, co.ss)
}

// Occupancy reports instantaneous ROB and issue-queue occupancy
// (engine.OccupancyReporter).
func (co *Core) Occupancy() (rob, iq int) { return co.rob.Len(), len(co.iq) }

// Abort releases every in-flight uop back to the pool after an
// interrupted run (engine.Aborter). It reuses the memory-violation flush
// machinery with seq 0, which squashes the whole window, rebuilds an
// empty RAT, and returns every physical register; the queued replay
// records are then discarded. The counters are polluted by the flush
// accounting, which is fine — a cancelled run's result is discarded.
func (co *Core) Abort() {
	co.flushFrom(0, co.cycle)
	co.fe.DropReplay()
	co.blockingBr = nil
}

// Release gives the core's cache arrays to the next hierarchy built
// (engine.Releaser); the core must not run again.
func (co *Core) Release() { co.mem.Release() }

func (co *Core) ixuEmpty() bool {
	for _, st := range co.ixu {
		if len(st) > 0 {
			return false
		}
	}
	return true
}

// dropFromSeq compacts out of r every uop with rec.Seq >= seq, keeping
// program order: the LSQ half of a flush.
func dropFromSeq(r *pipeline.Ring[*uop], seq uint64) {
	w := 0
	for i := 0; i < r.Len(); i++ {
		if u := r.At(i); u.rec.Seq < seq {
			r.Set(w, u)
			w++
		}
	}
	r.Truncate(w)
}

// flushFrom squashes every in-flight uop at or younger than seq (program
// order) and queues their records for re-fetch. Used for memory-order
// violation recovery.
//
// In-flight sequence numbers are unique (a replayed instruction is a fresh
// uop carrying the same record), so `rec.Seq >= seq` is the squash
// predicate everywhere and the seed implementation's per-flush
// map[*uop]bool is gone. The squashed records accumulate into the reusable
// co.flushRecs scratch, which is then swapped with the replay buffer, so a
// steady stream of violations performs no per-flush heap work.
func (co *Core) flushFrom(seq uint64, when int64) {
	co.c.Replays++
	co.active = true

	// Collect squashed records in program order: ROB suffix, then the
	// IXU contents, then the front-end queue (all younger than the ROB).
	recs := co.flushRecs[:0]
	cut := co.rob.Len()
	for i := 0; i < co.rob.Len(); i++ {
		if co.rob.At(i).rec.Seq >= seq {
			cut = i
			break
		}
	}
	for i := cut; i < co.rob.Len(); i++ {
		u := co.rob.At(i)
		recs = append(recs, u.rec)
		co.releaseDest(u)
		co.traceRetire(u, true)
	}

	// A squashed mispredicted branch no longer gates fetch. (Checked
	// before any uop is released below, while the pointer is still live.)
	if co.blockingBr != nil && co.blockingBr.rec.Seq >= seq {
		co.blockingBr = nil
	}

	// IXU stages hold uops that are renamed (in the ROB already), so they
	// are covered by the ROB walk; just clear them from the stages.
	for s := range co.ixu {
		st := co.ixu[s]
		w := 0
		for _, u := range st {
			if u.rec.Seq < seq {
				st[w] = u
				w++
			}
		}
		for i := w; i < len(st); i++ {
			st[i] = nil
		}
		co.ixu[s] = st[:w]
	}

	// Front-end queue uops are younger than everything renamed; a squashed
	// one holds only its pipeline-residency reference (it was never
	// renamed), so it goes back to the pool right here.
	wFE := 0
	for i := 0; i < co.feQueue.Len(); i++ {
		u := co.feQueue.At(i)
		if u.rec.Seq >= seq {
			recs = append(recs, u.rec)
			co.traceRetire(u, true)
			co.dropRefs(u)
			co.unref(u)
		} else {
			co.feQueue.Set(wFE, u)
			wFE++
		}
	}
	co.feQueue.Truncate(wFE)

	// IQ.
	nIQ := len(co.iq)
	keepIQ := co.iq[:0]
	for _, u := range co.iq {
		if u.rec.Seq < seq {
			keepIQ = append(keepIQ, u)
		}
	}
	for i := len(keepIQ); i < nIQ; i++ {
		co.iq[i] = nil
	}
	co.iq = keepIQ

	// LSQ.
	dropFromSeq(&co.lq, seq)
	dropFromSeq(&co.sq, seq)

	// Rebuild the RAT from the surviving window. An eliminated move maps
	// its destination back to the aliased producer, not to itself.
	co.clearRAT()
	for i := 0; i < cut; i++ {
		u := co.rob.At(i)
		if u.hasDst {
			if u.renoElim {
				co.setRAT(u.dst.File, u.dst.Index, u.srcs[0])
			} else {
				co.setRAT(u.dst.File, u.dst.Index, u)
			}
		}
	}

	// Release the squashed ROB suffix last, after every structure that
	// aliased those instances has been purged.
	for i := cut; i < co.rob.Len(); i++ {
		u := co.rob.At(i)
		co.dropRefs(u)
		co.unref(u)
	}
	co.rob.Truncate(cut)

	co.c.ReplayedUops += uint64(len(recs))
	// Not-yet-fetched records (a stalled fetch, earlier replays) are all
	// younger than the squashed window; the front end keeps program order
	// by appending them after the squashed records, then returns the old
	// replay backing as scratch so the next flush reuses it.
	co.flushRecs = co.fe.Requeue(recs)
	co.fe.StallUntil(when + int64(co.cfg.RedirectLatency) + violationRecovery)
}

// releaseDest returns the physical register held by u to the free pool.
func (co *Core) releaseDest(u *uop) {
	if !u.hasDst {
		return
	}
	if u.dst.File == isa.IntFile {
		co.intInUse--
	} else {
		co.fpInUse--
	}
}
