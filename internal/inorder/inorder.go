// Package inorder implements the cycle-level timing model of the in-order
// cores: a dual-issue in-order superscalar with a scoreboarded register
// file, in-order issue that stalls on RAW/WAW hazards and structural
// conflicts, and a short branch misprediction penalty. Unlike FXA's IXU —
// which lets not-ready instructions flow through as NOPs — an in-order
// pipeline stalls when the oldest instruction is not ready (Section II-B
// of the paper).
//
// One pipeline serves both in-order core kinds; they differ only in the
// rule that admits an instruction to the second issue slot:
//
//   - config.InOrder is the LITTLE core of Table I (Cortex-A53-class):
//     any instruction may pair.
//   - config.DualIssueInOrder is the DUAL/DUAL-SI bracket, the
//     pseudo-dual-issue discipline of Colagrande & Benini ("Low-Overhead
//     Dual-Issue", arXiv:2503.20590), where an integer control core and an
//     FP datapath each keep single-ported register files and a cycle pairs
//     at most one instruction from each side. In the big.LITTLE landscape
//     DUAL sits below LITTLE: a narrower machine (one FU per class) that
//     recovers part of LITTLE's throughput only on mixed INT/FP code, at
//     lower area and energy.
//
// The fetch/predict/decode path, the idle-skip machinery and the result
// assembly are the shared stage library (internal/pipeline, DESIGN.md
// §8.9); this package contributes the scoreboarded in-order issue stage.
package inorder

import (
	"context"
	"fmt"

	"fxa/internal/bpred"
	"fxa/internal/config"
	"fxa/internal/decodecache"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/isa"
	"fxa/internal/mem"
	"fxa/internal/pipeline"
	"fxa/internal/stats"
)

// issueDepth is the decode-to-issue depth beyond Model.FrontendDepth
// (scoreboard read and operand fetch); with Table I's LITTLE parameters
// it yields the 8-cycle misprediction penalty.
const issueDepth = 2

// capQ is the fetch-queue capacity (shared between fetch and the
// next-event scan).
func (co *Core) capQ() int {
	return (co.cfg.FrontendDepth + issueDepth + 2) * co.cfg.FetchWidth
}

// fpDomain classifies an execution class into the floating-point domain;
// everything else — integer ALU ops, loads, stores, branches — belongs to
// the integer side, which also hosts address generation and control flow
// (the paper's integer core does all memory sequencing).
func fpDomain(cls isa.Class) bool {
	return cls == isa.ClassFP || cls == isa.ClassFPMul || cls == isa.ClassFPDiv
}

type iuop struct {
	rec emu.Record
	// st is the static decode template stamped at fetch from the per-PC
	// decode cache; issue reads register/class/latency facts from it
	// instead of re-deriving them from rec.Inst every attempt.
	st         decodecache.Static
	fetchCycle int64
	mispredict bool
}

// PairStats are the pairing diagnostics: how often the second slot
// filled, and why it did not. Deliberately not part of stats.Counters
// (whose JSON form the goldens pin byte-exactly) — the same convention as
// SkipStats.
type PairStats struct {
	// PairedCycles counts cycles that issued two instructions (on DUAL,
	// one per domain).
	PairedCycles int64
	// SingleCycles counts cycles that issued exactly one instruction.
	SingleCycles int64
	// DomainBlocked counts second-slot rejections because the next
	// instruction was in the same domain as the first. Always zero on
	// LITTLE, which pairs any two instructions.
	DomainBlocked int64
}

// Core is one in-order core simulation. It implements engine.Engine
// (plus the Aborter and OccupancyReporter extensions) and registers
// itself for config.InOrder and config.DualIssueInOrder from init.
type Core struct {
	cfg config.Model
	mem *mem.Hierarchy
	bp  *bpred.Predictor
	c   stats.Counters

	cycle      int64
	blocked    bool // unresolved mispredicted branch in the queue
	blockStart int64

	// fe is the shared fetch/predict/decode path (internal/pipeline).
	fe pipeline.Frontend

	// wd is the shared deadlock watchdog (progress = an issue).
	wd engine.Watchdog

	// queue is the fetch queue, sized capQ() at construction: fetch
	// checks room first, so it never grows.
	queue pipeline.Ring[iuop]

	regReady [2][isa.NumIntRegs]int64
	fu       pipeline.FUPools

	memPortsThisCycle int
	lastDone          int64

	// skip is the shared idle-cycle skipper; the event sources registered
	// at construction are queue-head issue and fetch.
	skip   pipeline.Skipper
	active bool

	// pairDomains restricts the second issue slot to the opposite INT/FP
	// domain from the first (config.DualIssueInOrder).
	pairDomains bool
	pair        PairStats
}

// init registers the in-order core for both in-order kinds, so any
// package that (blank-)imports internal/inorder can construct it through
// engine.New without referring to this package's API.
func init() {
	for _, k := range []config.CoreKind{config.InOrder, config.DualIssueInOrder} {
		engine.Register(k, func(m config.Model, t engine.Trace) (engine.Engine, error) {
			return New(m, t)
		})
	}
}

// New builds an in-order core simulation for model cfg fed by trace.
func New(cfg config.Model, trace engine.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind != config.InOrder && cfg.Kind != config.DualIssueInOrder {
		return nil, fmt.Errorf("inorder: model %s is not an in-order core", cfg.Name)
	}
	co := &Core{
		cfg:         cfg,
		mem:         mem.NewHierarchy(cfg.Mem),
		bp:          bpred.New(cfg.Bpred),
		fu:          pipeline.NewFUPools(cfg.IntFUs, cfg.MemFUs, cfg.FPFUs),
		pairDomains: cfg.Kind == config.DualIssueInOrder,
	}
	co.queue = pipeline.NewRing[iuop](co.capQ())
	// CondBTBAlways=false: the in-order front end short-circuits the BTB
	// lookup for taken conditionals once the direction check fails.
	co.fe.Init(co.bp, co.mem, trace, false)
	co.skip.Enabled = true
	co.skip.AddSource(co.headEvents)
	co.skip.AddSource(co.fetchEvents)
	return co, nil
}

// SetIdleSkip turns idle-cycle skipping on or off for this core (testing
// support for differential skip-on/skip-off runs).
func (co *Core) SetIdleSkip(on bool) { co.skip.Enabled = on }

// SkipStats reports how many cycles were skipped rather than iterated and
// across how many idle spans. Deliberately not part of stats.Counters:
// results must be bit-identical with skipping on and off.
func (co *Core) SkipStats() (cycles, spans int64) { return co.skip.SkipStats() }

// Pairing reports the pairing diagnostics collected so far.
func (co *Core) Pairing() PairStats { return co.pair }

// Run simulates to completion and returns the collected statistics. It
// delegates to engine.Drive, so cancelling ctx interrupts the run within
// engine.DefaultCheckEvery simulated cycles.
func (co *Core) Run(ctx context.Context) (engine.Result, error) {
	return engine.Drive(ctx, co, engine.Options{})
}

// Step advances the simulation by at most nCycles cycles (engine.Engine).
//
// When idle-cycle skipping is enabled and a cycle ends without any
// pipeline transition (nothing fetched, nothing issued), the loop advances
// co.cycle directly to just before the next cycle at which a transition is
// possible instead of iterating the gap one side-effect-free cycle at a
// time. The jump is clamped to the step budget and the watchdog deadline,
// so Drive's interval cadence and deadlock detection observe exactly the
// cycles they would have without skipping.
func (co *Core) Step(nCycles int64) (bool, error) {
	co.fe.SyncDecodeCache()
	for n := int64(0); n < nCycles; n++ {
		co.cycle++
		co.memPortsThisCycle = 0
		co.active = false
		co.issue()
		co.fetch()
		if co.fe.Drained() && co.queue.Len() == 0 {
			return true, nil
		}
		if co.wd.Stuck(co.cycle) {
			return false, co.wd.Fail(co.cfg.Name, co.cycle, fmt.Sprintf("queue=%d", co.queue.Len()))
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

// Result assembles the statistics collected so far (engine.Engine). It is
// idempotent and safe to call mid-run. The cycle count extends to the
// completion of the longest-latency instruction issued so far.
func (co *Core) Result() engine.Result {
	end := co.lastDone
	if co.cycle > end {
		end = co.cycle
	}
	return pipeline.BuildResult(co.cfg.Name, co.c, end, co.mem, co.bp, nil)
}

// Occupancy reports the issue-queue depth (engine.OccupancyReporter). The
// in-order core has no ROB or out-of-order issue queue; its in-flight
// window is the fetch queue, reported in the ROB slot.
func (co *Core) Occupancy() (rob, iq int) { return co.queue.Len(), 0 }

// Abort drops the in-flight window after an interrupted run
// (engine.Aborter). The in-order core holds no pooled resources; clearing
// the queue just makes the abort explicit.
func (co *Core) Abort() {
	co.queue.Truncate(0)
	co.fe.DropReplay()
	co.blocked = false
}

// fetch mirrors the out-of-order front end: predictor consultation,
// I-cache access per line, fetch groups ending at taken branches, and a
// stall after a mispredicted branch until it resolves at execute. The
// loop is the shared pipeline.Frontend; this core contributes only iuop
// construction and the blocked-bit bookkeeping through the admit
// callback.
func (co *Core) fetch() {
	room := co.capQ() - co.queue.Len()
	fetched := co.fe.FetchCycle(co.cycle, co.blocked, co.cfg.FetchWidth, room, &co.c,
		func(rec *emu.Record, st *decodecache.Static, mispred bool) {
			u := co.queue.PushSlot()
			u.rec = *rec
			u.st = *st
			u.fetchCycle = co.cycle
			u.mispredict = mispred
			if mispred {
				co.blocked = true
				co.blockStart = co.cycle
			}
		})
	if fetched {
		co.active = true
	}
}

// issue retires up to IssueWidth instructions per cycle strictly in
// program order, stalling the whole pipeline on the first hazard — the
// behaviour the paper contrasts with the IXU's flow-through NOPs. With
// pairDomains set, once an instruction has issued this cycle the next may
// follow only if it belongs to the opposite INT/FP domain. The first slot
// is never constrained, so one hazard analysis — and with it the
// idle-skip head-event bound — covers both kinds.
func (co *Core) issue() {
	issued := 0
	firstFP := false
	for issued < co.cfg.IssueWidth && co.queue.Len() > 0 {
		u := co.queue.Front()
		if co.cycle < u.fetchCycle+int64(co.cfg.FrontendDepth)+issueDepth {
			break
		}
		cls := u.st.Cls

		// Pairing: the second slot must come from the opposite domain
		// (in-order, so a same-domain head stalls the cycle). Slot 0
		// either issues or stalls the cycle, so its domain can be noted
		// before the hazard checks.
		if co.pairDomains {
			if fp := fpDomain(cls); issued == 0 {
				firstFP = fp
			} else if fp == firstFP {
				co.pair.DomainBlocked++
				break
			}
		}

		// RAW: all sources ready.
		ready := true
		for _, r := range u.st.Srcs[:u.st.NSrc] {
			if co.regReady[r.File][r.Index] > co.cycle {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		// WAW interlock: pending write to the destination must complete.
		dst, hasDst := u.st.Dst, u.st.HasDst
		if hasDst && co.regReady[dst.File][dst.Index] > co.cycle {
			break
		}
		// Structural: FU availability.
		pool := co.fu.Pool(cls)
		fu := pipeline.FirstFree(pool, co.cycle)
		if fu < 0 {
			break
		}
		if (u.st.IsLoad || u.st.IsStore) && co.memPortsThisCycle >= co.cfg.MemFUs {
			break
		}

		// Issue. u stays in the queue until the end of this iteration:
		// popping zeroes its slot.
		issued++
		co.active = true
		co.wd.Progress(co.cycle)
		lat := u.st.Lat
		occupancy := int64(1)
		if u.st.Unpipelined {
			occupancy = lat
		}
		pool[fu] = co.cycle + occupancy
		switch cls {
		case isa.ClassLoad:
			co.memPortsThisCycle++
			lat = int64(co.mem.DataRead(u.rec.EA))
		case isa.ClassStore:
			co.memPortsThisCycle++
			// Store buffer: the write drains off the critical path.
			co.mem.DataWrite(u.rec.EA)
			lat = 1
		}
		done := co.cycle + lat
		if hasDst {
			co.regReady[dst.File][dst.Index] = done
			co.c.PRFWrites++
		}
		co.c.PRFReads += uint64(u.st.NSrc)
		co.c.FUOps[cls]++
		if done > co.lastDone {
			co.lastDone = done
		}

		// Branch resolution at execute.
		if u.mispredict {
			resolve := co.cycle + 2
			resume := resolve + int64(co.cfg.RedirectLatency)
			co.fe.StallUntil(resume)
			co.blocked = false
			stall := resume - co.blockStart
			if stall > 0 {
				co.c.MispredPenaltyCycles += uint64(stall)
				// The in-order front end would have fetched down the
				// wrong path, but almost nothing executes before the
				// pipeline blocks on the first not-ready wrong-path
				// instruction (Section VI-E).
				co.c.WrongPathFetched += uint64(float64(co.cfg.FetchWidth) * float64(stall) * 0.5)
				co.c.WrongPathExec += uint64(stall / 4)
			}
		}

		co.c.Committed++
		co.c.CommittedByClass[cls]++
		co.queue.PopFront()
	}
	switch issued {
	case 1:
		co.pair.SingleCycles++
	case 2:
		co.pair.PairedCycles++
	}
}

// Event sources for idle-cycle skipping (DESIGN.md §8.8, §8.9). Exactly
// two things can happen in an in-order cycle — the queue head issues, or
// fetch inserts — so two sources cover every transition.

// headEvents: the queue head issues no earlier than the decode-to-issue
// depth gate, every source and the destination scoreboard entry, and the
// first functional unit in its class pool to free up. All of these are
// finite absolute cycles. Valid as the idle-jump bound because an idle
// cycle issued nothing, leaving slot 0 — which the pairing rule never
// constrains — gated by exactly these conditions. (The per-cycle
// memory-port limit needs no candidate: memPortsThisCycle > 0 implies an
// issue happened this cycle, which marked the cycle active.)
func (co *Core) headEvents(ev func(int64)) {
	if co.queue.Len() == 0 {
		return
	}
	u := co.queue.Front()
	c := u.fetchCycle + int64(co.cfg.FrontendDepth) + issueDepth
	for _, r := range u.st.Srcs[:u.st.NSrc] {
		if rc := co.regReady[r.File][r.Index]; rc > c {
			c = rc
		}
	}
	if u.st.HasDst {
		if rc := co.regReady[u.st.Dst.File][u.st.Dst.Index]; rc > c {
			c = rc
		}
	}
	if free := pipeline.NextFree(co.fu.Pool(u.st.Cls)); free > c {
		c = free
	}
	ev(c)
}

// fetchEvents: fetch is blocked on nothing but the I-cache/redirect
// stall, provided the queue has room (otherwise the head-issue candidate
// covers the slot freeing) and there is anything left to fetch. A core
// blocked on an unresolved mispredict resumes via the head-issue path
// too.
func (co *Core) fetchEvents(ev func(int64)) {
	co.fe.FetchEvent(co.blocked, co.queue.Len() < co.capQ(), ev)
}
