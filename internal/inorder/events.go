package inorder

import "fxa/internal/pipeline"

// Event sources for idle-cycle skipping (DESIGN.md §8.8, §8.9).
//
// The machinery — folding candidates into a conservative lower bound,
// clamping the jump, tracking diagnostics — is the shared
// pipeline.Skipper. Exactly two things can happen in an in-order cycle —
// the queue head issues, or fetch inserts — so two event sources cover
// every transition.

// registerSkipSources wires this core's event sources into the shared
// Skipper.
func (co *Core) registerSkipSources() {
	co.skip.AddSource(co.headEvents)
	co.skip.AddSource(co.fetchEvents)
}

// headEvents: the queue head issues no earlier than the decode-to-issue
// depth gate, every source and the destination scoreboard entry, and the
// first functional unit in its class pool to free up. All of these are
// finite absolute cycles. (The per-cycle memory-port limit needs no
// candidate: memPortsThisCycle > 0 implies an issue happened this cycle,
// which marked the cycle active.)
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
