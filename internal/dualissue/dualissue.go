// Package dualissue implements a dual-issue in-order core whose second
// issue slot is restricted to the opposite integer/floating-point domain
// from the first — the pseudo-dual-issue discipline of Colagrande &
// Benini ("Low-Overhead Dual-Issue", arXiv:2503.20590), where an integer
// control core and an FP datapath each keep single-ported register files
// and a cycle pairs at most one instruction from each side. The pairing
// policy is this package's entire contribution: the fetch/predict/decode
// path, the idle-skip machinery and the result assembly come from the
// shared stage library (internal/pipeline, DESIGN.md §8.9), and the
// scoreboarded hazard checks mirror internal/inorder.
//
// In the big.LITTLE landscape the DUAL model sits below LITTLE: a
// narrower machine (one FU per class) that recovers part of LITTLE's
// throughput only on mixed INT/FP code, at lower area and energy.
package dualissue

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
// (same two stages — scoreboard read and operand fetch — as the LITTLE
// core).
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
	// decode cache.
	st         decodecache.Static
	fetchCycle int64
	mispredict bool
}

// PairStats are the pairing-policy diagnostics: how often the second
// slot filled, and why it did not. Deliberately not part of
// stats.Counters (whose JSON form the goldens pin byte-exactly) — the
// same convention as SkipStats.
type PairStats struct {
	// PairedCycles counts cycles that issued two instructions (one per
	// domain).
	PairedCycles int64
	// SingleCycles counts cycles that issued exactly one instruction.
	SingleCycles int64
	// DomainBlocked counts second-slot rejections because the next
	// instruction was in the same domain as the first.
	DomainBlocked int64
}

// Core is one dual-issue in-order core simulation. It implements
// engine.Engine (plus the Aborter and OccupancyReporter extensions) and
// registers itself for config.DualIssueInOrder from init.
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

	pair PairStats

	// skip is the shared idle-cycle skipper; the event sources registered
	// at construction are the in-order pair: queue-head issue and fetch.
	skip   pipeline.Skipper
	active bool
}

// init registers the dual-issue core with the engine layer, so any
// package that (blank-)imports internal/dualissue can construct it
// through engine.New without referring to this package's API.
func init() {
	engine.Register(config.DualIssueInOrder, func(m config.Model, t engine.Trace) (engine.Engine, error) {
		return New(m, t)
	})
}

// New builds a dual-issue in-order core simulation for model cfg fed by
// trace.
func New(cfg config.Model, trace engine.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind != config.DualIssueInOrder {
		return nil, fmt.Errorf("dualissue: model %s is not a dual-issue in-order core", cfg.Name)
	}
	co := &Core{
		cfg: cfg,
		mem: mem.NewHierarchy(cfg.Mem),
		bp:  bpred.New(cfg.Bpred),
		fu:  pipeline.NewFUPools(cfg.IntFUs, cfg.MemFUs, cfg.FPFUs),
	}
	co.queue = pipeline.NewRing[iuop](co.capQ())
	// CondBTBAlways=false: like the LITTLE core, the in-order front end
	// short-circuits the BTB lookup once the direction check fails.
	co.fe.Init(co.bp, co.mem, trace, false)
	co.skip.Enabled = engine.IdleSkip()
	co.skip.AddSource(co.headEvents)
	co.skip.AddSource(co.fetchEvents)
	return co, nil
}

// SetIdleSkip overrides the process-wide engine.IdleSkip default for this
// core (testing support for differential skip-on/skip-off runs).
func (co *Core) SetIdleSkip(on bool) { co.skip.Enabled = on }

// SkipStats reports the idle-skip diagnostics (see pipeline.Skipper).
func (co *Core) SkipStats() (cycles, spans int64) { return co.skip.SkipStats() }

// Pairing reports the pairing-policy diagnostics collected so far.
func (co *Core) Pairing() PairStats { return co.pair }

// Run simulates to completion and returns the collected statistics.
func (co *Core) Run(ctx context.Context) (engine.Result, error) {
	return engine.Drive(ctx, co, engine.Options{})
}

// Step advances the simulation by at most nCycles cycles (engine.Engine),
// with the shared idle-cycle skipping of pipeline.Skipper.
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

// Result assembles the statistics collected so far (engine.Engine). The
// cycle count extends to the completion of the longest-latency
// instruction issued so far.
func (co *Core) Result() engine.Result {
	end := co.lastDone
	if co.cycle > end {
		end = co.cycle
	}
	return pipeline.BuildResult(co.cfg.Name, co.c, end, co.mem, co.bp, nil)
}

// Occupancy reports the fetch-queue depth (engine.OccupancyReporter).
func (co *Core) Occupancy() (rob, iq int) { return co.queue.Len(), 0 }

// Abort drops the in-flight window after an interrupted run
// (engine.Aborter).
func (co *Core) Abort() {
	co.queue.Truncate(0)
	co.fe.DropReplay()
	co.blocked = false
}

// fetch is the shared front end; this core contributes only iuop
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
// program order, with the mixed-domain pairing rule on the second slot:
// once an instruction has issued this cycle, the next may follow only if
// it belongs to the opposite INT/FP domain. The first slot is never
// constrained, so the single-issue hazard analysis — and with it the
// idle-skip head-event bound — carries over from the LITTLE core
// unchanged: an idle cycle issued nothing, and slot 0 obeys exactly the
// scoreboard and FU conditions the bound enumerates.
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
		// (in-order, so a same-domain head stalls the cycle).
		if issued == 1 && fpDomain(cls) == firstFP {
			co.pair.DomainBlocked++
			break
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
		if issued == 0 {
			firstFP = fpDomain(cls)
		}
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

// headEvents: the queue head issues no earlier than the decode-to-issue
// depth gate, every source and the destination scoreboard entry, and the
// first functional unit in its class pool to free up. Valid as the
// idle-jump bound because an idle cycle issued nothing, leaving slot 0 —
// which the pairing rule never constrains — gated by exactly these
// conditions.
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

// fetchEvents: the shared front end's candidate, gated on queue room and
// the unresolved-mispredict bit (resolution is an issue event).
func (co *Core) fetchEvents(ev func(int64)) {
	co.fe.FetchEvent(co.blocked, co.queue.Len() < co.capQ(), ev)
}
