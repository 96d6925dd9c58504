package core

import (
	"fmt"

	"fxa/internal/decodecache"
	"fxa/internal/emu"
	"fxa/internal/isa"
)

// uop pool and reference counting.
//
// The seed implementation allocated one uop per fetched instruction and
// left reclamation to the garbage collector — at simulator speed that is
// hundreds of thousands of short-lived heap objects per simulated
// millisecond, and GC dominated the wall clock of every sweep. The pool
// recycles uops explicitly instead, which requires knowing when the last
// pointer to an instance drops. References to a uop exist in exactly four
// places:
//
//  1. pipeline residency — the instruction sits in the front-end queue
//     and/or the ROB (IXU stages, IQ and LSQ entries always alias a ROB
//     entry, so residency is a single reference held from fetch until
//     commit or squash);
//  2. the RAT, which maps an architectural register to its last in-flight
//     producer and can keep pointing at it long after it commits;
//  3. consumer source operands (u.srcs), released when the consumer
//     itself commits or is squashed;
//  4. store-set dependence edges (u.depStore), released with the consumer.
//
// Reading a *committed* producer through (2)–(4) is semantically sound —
// its prfCycle/resultCycle lie in the past, so every availability check
// answers "ready" — which is exactly why those pointers may outlive the
// producer's residency and why recycling must wait for the count to reach
// zero rather than happen eagerly at commit.
//
// The counts are maintained by ref/unref; TestFuzzRandomFlush and the
// leak checks in fuzz_test.go verify conservation (allocated = pooled +
// live) after every run, including runs with flushes injected at random
// cycles.

// allocUop takes a uop from the pool (or the heap when the pool is empty)
// and initializes it from a trace record at fetch time, holding the
// pipeline-residency reference. Static decode metadata is a template
// stamp from the per-PC decode cache (looked up by the shared front end
// and passed in); only the dynamic fields are set here.
func (co *Core) allocUop(rec *emu.Record, st *decodecache.Static, cycle int64) *uop {
	var u *uop
	if n := len(co.pool); n > 0 {
		u = co.pool[n-1]
		co.pool[n-1] = nil
		co.pool = co.pool[:n-1]
		*u = uop{}
	} else {
		u = new(uop)
	}
	co.uopLive++

	u.st = *st
	u.rec = *rec
	u.fetchCycle = cycle
	u.renameCycle = farFuture
	u.dispatchCycle = farFuture
	u.execCycle = farFuture
	u.resultCycle = farFuture
	u.prfCycle = farFuture
	u.lqIdx = -1
	u.sqIdx = -1
	u.robIdx = -1
	u.nsrc = int(st.NSrc)
	for i := range u.srcAvail {
		u.srcAvail[i] = farFuture
	}
	u.dst, u.hasDst = st.Dst, st.HasDst
	u.ea = rec.EA
	u.refs = 1 // pipeline residency
	return u
}

// ref takes a reference to u (nil-safe).
func (co *Core) ref(u *uop) {
	if u != nil {
		u.refs++
	}
}

// unref drops a reference to u (nil-safe) and recycles it when the last
// one is gone.
func (co *Core) unref(u *uop) {
	if u == nil {
		return
	}
	u.refs--
	if u.refs == 0 {
		co.uopLive--
		co.pool = append(co.pool, u)
		return
	}
	if u.refs < 0 {
		panic(fmt.Sprintf("core: uop seq %d over-released (refs %d)", u.rec.Seq, u.refs))
	}
}

// dropRefs releases every outgoing reference u holds (source producers and
// the store-set dependence edge), nilling the pointers so a later release
// cannot double-count. Called when u leaves the pipeline (commit or
// squash). The loop covers all three slots rather than nsrc because RENO
// move elimination stores the aliased producer in srcs[0] while setting
// nsrc to 0.
func (co *Core) dropRefs(u *uop) {
	for i := range u.srcs {
		co.unref(u.srcs[i])
		u.srcs[i] = nil
	}
	co.unref(u.depStore)
	u.depStore = nil
}

// setRAT points the RAT entry for (file, index) at u, moving the reference
// from the previous occupant.
func (co *Core) setRAT(file isa.RegFile, index uint8, u *uop) {
	old := co.rat[file][index]
	if old == u {
		return
	}
	co.ref(u)
	co.rat[file][index] = u
	co.unref(old)
}

// clearRAT drops every RAT entry (flush recovery rebuilds the map from the
// surviving window).
func (co *Core) clearRAT() {
	for f := range co.rat {
		for i := range co.rat[f] {
			if old := co.rat[f][i]; old != nil {
				co.rat[f][i] = nil
				co.unref(old)
			}
		}
	}
}

// LeakCheck verifies uop conservation after a drained or aborted run
// (engine.LeakChecker). Drive calls it on every cancellation so aborted
// daemon and sweep jobs are leak-verified in production, not only under
// the fuzz suite.
func (co *Core) LeakCheck() error { return co.leakCheck() }

// leakCheck (testing support) verifies uop conservation after a run has
// drained: every uop ever taken from the pool must either be back in it or
// still referenced — and after a drain the only legal referents are
// committed producers held by the RAT. Returns an error describing the
// first violated invariant.
func (co *Core) leakCheck() error {
	if co.rob.Len() != 0 || co.feQueue.Len() != 0 || !co.ixuEmpty() || len(co.iq) != 0 ||
		co.lq.Len() != 0 || co.sq.Len() != 0 {
		return fmt.Errorf("core: leakCheck before drain (rob=%d fe=%d iq=%d lq=%d sq=%d)",
			co.rob.Len(), co.feQueue.Len(), len(co.iq), co.lq.Len(), co.sq.Len())
	}
	distinct := make(map[*uop]bool)
	for f := range co.rat {
		for i := range co.rat[f] {
			if u := co.rat[f][i]; u != nil {
				distinct[u] = true
			}
		}
	}
	if co.uopLive != len(distinct) {
		return fmt.Errorf("core: uop leak: %d live after drain, %d reachable from the RAT",
			co.uopLive, len(distinct))
	}
	for _, u := range co.pool {
		if u.refs != 0 {
			return fmt.Errorf("core: pooled uop seq %d still has %d refs", u.rec.Seq, u.refs)
		}
	}
	return nil
}
