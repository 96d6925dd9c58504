package core

import (
	"fxa/internal/decodecache"
	"fxa/internal/emu"
	"fxa/internal/isa"
	"fxa/internal/pipeline"
)

// farFuture marks a cycle that never arrives (operand not available,
// result not scheduled).
const farFuture = pipeline.FarFuture

// uop is one in-flight dynamic instruction instance. A flushed instruction
// is re-injected as a fresh uop carrying the same emu.Record, so rec.Seq
// identifies the program-order position while pointer identity identifies
// the pipeline instance.
type uop struct {
	rec emu.Record

	// st is the static decode template stamped at fetch (Core.dec): the
	// per-static-instruction metadata — register template, FU class and
	// latency, branch kind — that the seed implementation re-derived from
	// rec.Inst for every dynamic instance.
	st decodecache.Static

	// Dependencies. srcs[i] is the in-flight producer of the i-th source
	// operand, or nil when the value comes from architectural state that
	// is already committed.
	srcs [3]*uop
	nsrc int
	// srcAvail[i] is the cycle from which the i-th operand is available
	// to this uop *inside the IXU*: set from the front-end PRF read at
	// entry, or by a bypass capture when the producer executes in the
	// IXU. farFuture when (not yet) available.
	srcAvail [3]int64

	dst    isa.Reg
	hasDst bool

	// Pipeline lifecycle cycles.
	fetchCycle    int64
	renameCycle   int64
	dispatchCycle int64 // IQ entry write (farFuture until dispatched)

	inIXU         bool
	ixuStage      int // current IXU stage (updated as the pipeline shifts)
	ixuExecStage  int // stage the instruction executed at (valid when executedInIXU)
	executedInIXU bool
	readyAtEntry  bool // category (a): all operands from the front-end PRF read

	inIQ     bool
	issued   bool
	executed bool

	// execCycle is the cycle execution (or the IXU execution attempt
	// that succeeded) happened; resolution point for branches.
	execCycle int64
	// resultCycle is the cycle from which the result is available to
	// consumers in the same domain via bypass (issue/exec + latency).
	resultCycle int64
	// prfCycle is the cycle from which the result is readable from the
	// PRF (writeback for OXU results; IXU exit for IXU results).
	prfCycle int64

	// Branch state.
	mispredict bool // direction or target mispredicted at fetch

	// Memory state.
	ea        uint64
	lqIdx     int // index into the load queue, -1 if none
	sqIdx     int
	lqWritten bool // LQ entry holds an executed address (violation-visible)
	depStore  *uop // store-set predicted dependence; wait until it executes

	robIdx int

	// renoElim marks a move eliminated at rename (RENO extension): the
	// RAT maps its destination to its source's producer and the
	// instruction consumes no execution resources.
	renoElim bool

	// traceID identifies this instance to an attached engine.Probe.
	traceID uint64

	// refs is the pool reference count (see pool.go): pipeline residency
	// plus one per RAT entry, consumer source operand, and store-set
	// dependence edge pointing at this instance.
	refs int32
}

func (u *uop) isLoad() bool  { return u.st.IsLoad }
func (u *uop) isStore() bool { return u.st.IsStore }

// resultAvailableTo reports the cycle from which a consumer in the OXU can
// use this producer's result: bypass availability for OXU-executed
// producers, PRF availability for IXU-executed ones (no IXU→OXU bypass,
// Section III-A1 — but the IXU result is in the PRF before any OXU
// consumer can issue).
func (u *uop) availToOXU() int64 {
	if u.executedInIXU {
		return u.prfCycle
	}
	return u.resultCycle
}

// uop construction lives in pool.go (Core.allocUop): instances are
// recycled through a per-core free list, so building one must not
// allocate. The architectural register template — along with every other
// static fact about the instruction — comes pre-derived from the per-PC
// decode cache (internal/decodecache) and is stamped onto the uop in one
// struct copy.
