package core

import (
	"fmt"

	"fxa/internal/decodecache"
	"fxa/internal/emu"
	"fxa/internal/isa"
)

// fetch models the fetch stage: up to FetchWidth instructions per cycle
// from the correct path, ending at taken branches; I-cache misses and
// unresolved branch mispredictions stall it. The loop itself — trace
// consumption, I-cache access per line, decode-template lookup, predictor
// consultation — is the shared pipeline.Frontend; this core contributes
// only uop allocation and blocking-branch bookkeeping through the admit
// callback. The front-end queue bounds the number of in-flight
// fetched-but-not-renamed instructions (the decode/rename pipeline plus a
// small fetch buffer).
func (co *Core) fetch() {
	room := co.feCap() - co.feQueue.Len()
	fetched := co.fe.FetchCycle(co.cycle, co.blockingBr != nil, co.cfg.FetchWidth, room, &co.c,
		func(rec *emu.Record, st *decodecache.Static, mispred bool) {
			u := co.allocUop(rec, st, co.cycle)
			if mispred {
				u.mispredict = true
				co.blockingBr = u
				co.blockStart = co.cycle
			}
			co.traceStart(u)
			co.feQueue.PushBack(u)
		})
	if fetched {
		co.active = true
	}
}

// renameBlocked reports whether u — the front-end queue head, already out
// of the decode pipeline — cannot rename this cycle for structural
// reasons. Shared with the next-event scan (skip.go) so the gate set can
// never drift between the two.
func (co *Core) renameBlocked(u *uop) bool {
	if co.rob.Len() >= co.cfg.ROBEntries {
		return true
	}
	if u.hasDst {
		if u.dst.File == isa.IntFile {
			if co.intInUse >= co.cfg.IntPRF-isa.NumIntRegs {
				return true
			}
		} else if co.fpInUse >= co.cfg.FPPRF-isa.NumFPRegs {
			return true
		}
	}
	if u.st.IsLoad && co.lq.Len() >= co.cfg.LQEntries {
		return true
	}
	if u.st.IsStore && co.sq.Len() >= co.cfg.SQEntries {
		return true
	}
	if co.cfg.FX {
		if len(co.ixu[0]) >= co.cfg.FetchWidth {
			return true // IXU entry stage still occupied (dispatch stalled)
		}
	} else if len(co.iq) >= co.cfg.IQEntries {
		return true
	}
	return false
}

// rename models the rename/allocate stage: RAT lookup, physical register,
// ROB and LSQ allocation, store-set lookups, and — for FXA — the front-end
// scoreboard+PRF read and IXU entry (for conventional models, dispatch
// straight into the IQ).
func (co *Core) rename() {
	for n := 0; n < co.cfg.FetchWidth && co.feQueue.Len() > 0; n++ {
		u := co.feQueue.At(0)
		if co.cycle < u.fetchCycle+co.frontDepth() {
			return // still in the decode pipeline
		}
		if co.renameBlocked(u) {
			return
		}

		co.feQueue.PopFront()
		co.active = true
		u.renameCycle = co.cycle
		co.traceStage(u, "Rn")

		// RAT. Each source pointer takes a reference on its producer so
		// the pool cannot recycle it while this consumer may still read
		// its timestamps (pool.go). The architectural sources come from
		// the decode template stamped at fetch.
		co.c.RATReads += uint64(u.nsrc)
		for i := 0; i < u.nsrc; i++ {
			r := u.st.Srcs[i]
			p := co.rat[r.File][r.Index]
			u.srcs[i] = p
			co.ref(p)
		}

		// RENO move elimination: a register move (addi rd, ra, 0) or a
		// zero idiom (clr) is performed entirely inside the renamer by
		// aliasing rd's RAT entry to ra's current producer; the
		// instruction becomes a completed ROB entry and never executes.
		if co.cfg.RENO && u.st.RenoCand {
			u.renoElim = true
			// The generic RAT lookup above already stored Ra's producer
			// (or nil for the zero register) in srcs[0] with a reference
			// held, so the alias is read back from there rather than
			// re-looked-up — dropRefs releases it when u leaves.
			alias := u.srcs[0]
			u.nsrc = 0 // no operands to wait for
			co.setRAT(u.dst.File, u.dst.Index, alias)
			co.c.RATWrites++
			co.c.RenoEliminated++
			u.executed = true
			u.execCycle = co.cycle
			u.resultCycle = co.cycle
			u.prfCycle = co.cycle
			u.robIdx = co.rob.Len()
			co.rob.PushBack(u)
			co.c.ROBWrites++
			co.traceStage(u, "Cm")
			continue
		}

		if u.hasDst {
			co.setRAT(u.dst.File, u.dst.Index, u)
			co.c.RATWrites++
			if u.dst.File == isa.IntFile {
				co.intInUse++
			} else {
				co.fpInUse++
			}
		}

		// ROB.
		u.robIdx = co.rob.Len()
		co.rob.PushBack(u)
		co.c.ROBWrites++

		// LSQ allocation and memory-dependence prediction.
		if u.isLoad() {
			u.lqIdx = co.lq.Len()
			co.lq.PushBack(u)
			if storeSeq, wait := co.ss.LoadLookup(u.rec.PC); wait {
				for i := 0; i < co.sq.Len(); i++ {
					st := co.sq.At(i)
					if st.rec.Seq == storeSeq && !st.executed {
						u.depStore = st
						co.ref(st)
						break
					}
				}
			}
		}
		if u.isStore() {
			u.sqIdx = co.sq.Len()
			co.sq.PushBack(u)
			co.ss.StoreRename(u.rec.PC, u.rec.Seq)
		}

		// One architectural PRF read per source operand, counted at the
		// single read point (front end for FXA, issue for conventional;
		// Section V-B: the counts are the same).
		co.c.PRFReads += uint64(u.nsrc)

		if co.cfg.FX {
			// Front-end scoreboard read (#1) then PRF read; operands
			// whose producers have written the PRF are captured now.
			co.c.ScoreboardReads++
			ready := true
			for i := 0; i < u.nsrc; i++ {
				p := u.srcs[i]
				switch {
				case p == nil || p.prfCycle <= co.cycle:
					u.srcAvail[i] = co.cycle
				case p.executedInIXU && !p.isLoad() && p.execCycle == co.cycle &&
					co.cfg.IXU.Reach(p.ixuExecStage, 0):
					// The producer's result wire is being driven right
					// now; the register-read-stage source latches capture
					// it even though the PRF write has not landed yet
					// (this is what makes a 1-stage IXU useful at all —
					// Figure 12's depth-1 point).
					u.srcAvail[i] = p.resultCycle
					ready = false
				default:
					ready = false
				}
			}
			u.readyAtEntry = ready
			u.inIXU = true
			u.ixuStage = 0
			co.traceStage(u, "X0")
			co.ixu[0] = append(co.ixu[0], u)
		} else {
			u.dispatchCycle = co.cycle + 1
			u.inIQ = true
			co.iq = append(co.iq, u)
			co.c.IQDispatch++
			co.traceStage(u, "Ds")
		}
	}
}

// ixuStep advances the IXU by one cycle: execution attempts at every
// stage, then draining the exit stage into the dispatch stage (IQ), then
// shifting the pipeline forward. Not-ready instructions flow through as
// NOPs — the IXU never stalls except for dispatch back-pressure
// (Section II-B).
func (co *Core) ixuStep() {
	nStages := len(co.ixu)

	// Bypass pass: results of instructions already executed in the IXU
	// ride the FU pass-through path (Figure 6) through later stages, so
	// they stay visible on the bypass network from whatever stage the
	// producer currently occupies. Consumers within bypass reach latch
	// them into their travelling source latches.
	for st := range co.ixu {
		for _, v := range co.ixu[st] {
			for i := 0; i < v.nsrc; i++ {
				if v.srcAvail[i] <= co.cycle {
					continue
				}
				p := v.srcs[i]
				if p == nil || !p.executedInIXU || !p.inIXU {
					continue
				}
				// Load data is delivered by the L1D to the PRF, not
				// driven onto the IXU result wires (the bypass network
				// connects FU outputs only — Figures 5 and 6), so it is
				// not forwardable inside the IXU.
				if p.isLoad() {
					continue
				}
				if p.resultCycle <= co.cycle && co.cfg.IXU.Reach(p.ixuStage, st) {
					v.srcAvail[i] = co.cycle
				}
			}
		}
	}

	// Execution attempts, front to back. A result produced this cycle is
	// available to consumers from the next cycle, so intra-cycle chaining
	// cannot happen regardless of stage order.
	for s := 0; s < nStages; s++ {
		fus := co.cfg.IXU.StageFUs[s]
		used := 0
		for _, u := range co.ixu[s] {
			if used >= fus {
				break
			}
			if u.executedInIXU {
				continue
			}
			if co.tryIXUExec(u, s) {
				used++
				co.active = true
			}
		}
	}

	// Drain the exit stage in order: executed instructions write the PRF
	// and leave; the rest are dispatched to the IQ (scoreboard read #2,
	// Section III-C). When the IQ lacks space, dispatch drains as far as
	// it can and the IXU stalls behind the first blocked instruction.
	exit := co.ixu[nStages-1]
	drained := 0
	for _, u := range exit {
		if u.executedInIXU {
			u.inIXU = false
			// PRF write happens at IXU exit (Section II-B); a
			// same-cycle front-end read sees it (write-first register
			// file).
			u.prfCycle = max64(co.cycle, u.resultCycle)
			co.c.IXUPassThrough += uint64(nStages - 1)
			drained++
			continue
		}
		if len(co.iq) >= co.cfg.IQEntries {
			break // dispatch blocked; keep the rest in the exit stage
		}
		u.inIXU = false
		co.c.ScoreboardReads++
		co.c.IXUPassThrough += uint64(nStages)
		u.dispatchCycle = co.cycle
		u.inIQ = true
		co.iq = append(co.iq, u)
		co.c.IQDispatch++
		co.traceStage(u, "Ds")
		drained++
	}
	if drained > 0 {
		co.active = true
		// In-place compaction: the seed implementation copied the
		// remainder through a fresh slice (`append(exit[:0:0], ...)`),
		// one allocation per drain cycle.
		n := copy(exit, exit[drained:])
		for i := n; i < len(exit); i++ {
			exit[i] = nil
		}
		co.ixu[nStages-1] = exit[:n]
	}

	// Shift stages toward the exit wherever the next stage is free.
	for s := nStages - 1; s >= 1; s-- {
		if len(co.ixu[s]) == 0 && len(co.ixu[s-1]) > 0 {
			co.ixu[s], co.ixu[s-1] = co.ixu[s-1], co.ixu[s]
			co.active = true
			for _, u := range co.ixu[s] {
				u.ixuStage = s
				if co.tracer != nil {
					co.traceStage(u, fmt.Sprintf("X%d", s))
				}
			}
		}
	}
}

// tryIXUExec attempts to execute u on an IXU FU at stage s in the current
// cycle. It returns true when the instruction executed.
func (co *Core) tryIXUExec(u *uop, s int) bool {
	if !u.st.IXUElig {
		return false
	}
	cls := u.st.Cls
	if cls == isa.ClassLoad || cls == isa.ClassStore {
		// Resource arbitration with the OXU for LSQ/L1D ports; the OXU
		// has priority (Section II-D3).
		if co.memPortsThisCycle >= co.cfg.MemFUs {
			return false
		}
		if cls == isa.ClassLoad && u.depStore != nil && !u.depStore.executed {
			return false // predicted memory dependence not yet resolved
		}
	}
	for i := 0; i < u.nsrc; i++ {
		if u.srcAvail[i] > co.cycle {
			return false
		}
	}

	// Execute.
	u.executed = true
	u.executedInIXU = true
	u.execCycle = co.cycle
	lat := u.st.Lat
	switch cls {
	case isa.ClassLoad:
		co.memPortsThisCycle++
		lat = int64(co.execLoad(u, true))
		co.c.IXULoadExec++
	case isa.ClassStore:
		co.memPortsThisCycle++
		co.execStore(u, true)
		co.c.IXUStoreExec++
	case isa.ClassBranch, isa.ClassJump:
		co.c.IXUBranchExec++
	}
	u.resultCycle = co.cycle + lat
	u.ixuExecStage = s
	co.c.FUOps[cls]++
	if u.hasDst {
		co.c.PRFWrites++
		if !u.isLoad() {
			co.c.IXUBypassDrives++
			co.captureBypass(u, s)
		}
	}
	if u.st.IsBranch && u.mispredict {
		co.c.MispredResolvedIXU++
		co.resolveMispredict(u, co.cycle+1, true)
	}
	return true
}

// captureBypass broadcasts u's result over the IXU bypass network:
// younger consumers currently in the IXU latch it if their next-cycle FU
// is within bypass reach of the producing FU (Sections II-C1, III-A2).
func (co *Core) captureBypass(p *uop, ps int) {
	nStages := len(co.ixu)
	for st := range co.ixu {
		for _, v := range co.ixu[st] {
			if v.rec.Seq <= p.rec.Seq || v.executedInIXU {
				continue
			}
			consumeStage := st + 1
			if consumeStage > nStages-1 {
				consumeStage = nStages - 1
			}
			if !co.cfg.IXU.Reach(ps, consumeStage) {
				continue
			}
			for i := 0; i < v.nsrc; i++ {
				if v.srcs[i] == p && v.srcAvail[i] > p.resultCycle {
					v.srcAvail[i] = p.resultCycle
				}
			}
		}
	}
}

// resolveMispredict handles a resolved branch misprediction: fetch resumes
// after the redirect latency, and the wrong-path work the real machine
// would have performed during the stall window is estimated for the energy
// model.
func (co *Core) resolveMispredict(u *uop, resolveCycle int64, inIXU bool) {
	if co.blockingBr != u {
		return
	}
	co.blockingBr = nil
	resume := resolveCycle + int64(co.cfg.RedirectLatency)
	co.fe.StallUntil(resume)
	stall := resume - co.blockStart
	if stall < 0 {
		stall = 0
	}
	co.c.MispredPenaltyCycles += uint64(stall)
	// Wrong-path estimates: the front end would have kept fetching at
	// ~3/4 utilization; the backend would have speculatively executed a
	// slice of those, bounded by the instruction window.
	wrongFetch := uint64(float64(co.cfg.FetchWidth) * float64(stall) * 0.75)
	co.c.WrongPathFetched += wrongFetch
	execWidth := float64(co.cfg.IssueWidth)
	if co.cfg.FX {
		execWidth += float64(co.cfg.IXU.TotalFUs()) * 0.5
	}
	wrongExec := uint64(execWidth * float64(stall) * 0.25)
	if cap := uint64(co.cfg.ROBEntries / 2); wrongExec > cap {
		wrongExec = cap
	}
	co.c.WrongPathExec += wrongExec
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
