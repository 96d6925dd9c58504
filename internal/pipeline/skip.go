package pipeline

import "fxa/internal/engine"

// Event-driven idle-cycle skipping (DESIGN.md §8.8, §8.9).
//
// When a cycle ends with no stage having changed state, the core computes
// — from end-of-cycle machine state alone — a conservative lower bound E
// on the first future cycle at which any stage can change state, and the
// Step loop advances the cycle counter to E-1 so the next iteration ticks
// into E. The bound being a *lower* bound is the entire safety argument:
// waking too early just re-evaluates an idle cycle (idle cycles are
// side-effect-free), while waking late would let the skip path diverge
// from the tick path. Skipped spans never appear in stats.Counters —
// results are bit-identical to the tick path.
//
// Skipper is the one shared implementation of this machinery (it replaced
// per-core copies in internal/core and internal/inorder). The per-core
// part — which structures can wake the pipeline, and when — is registered
// as event-source closures: each source calls ev(c) for every candidate
// cycle c at which its stage might transition. Candidates at or before
// the current cycle mean "retry next cycle" (ready but structurally
// blocked) and clamp to now+1. A source may omit a candidate only when
// the wake-up is itself another enumerated event (a producer executing, a
// structural resource freeing), so the transitive closure of enumerated
// events covers every state transition.

// Skipper folds registered event sources into idle jumps and tracks the
// skip diagnostics.
type Skipper struct {
	// Enabled selects skipping; cores turn it on at construction and
	// expose SetIdleSkip to change it per instance. Both settings produce
	// bit-identical results — the knob exists for the differential suite
	// and debugging, not fidelity.
	Enabled bool

	sources []func(ev func(int64))

	// now and next are the state of the scan in progress, and observe is
	// the ev callback every source receives: the observe method value,
	// bound once by the first AddSource, so a scan allocates nothing. A
	// Skipper must therefore not be copied once a source is registered.
	now, next int64
	observe   func(int64)

	skippedCycles int64
	skipSpans     int64
}

// AddSource registers one event source. Sources are invoked in
// registration order on every idle-jump scan; each reads its core's
// end-of-cycle state through its closure.
func (s *Skipper) AddSource(src func(ev func(int64))) {
	if s.observe == nil {
		s.observe = s.event
	}
	s.sources = append(s.sources, src)
}

// event folds one candidate cycle into the scan in progress.
func (s *Skipper) event(c int64) {
	if c <= s.now {
		c = s.now + 1
	}
	if c < s.next {
		s.next = c
	}
}

// NextEvent returns a conservative lower bound on the earliest future
// cycle (> now) at which any registered source can transition.
func (s *Skipper) NextEvent(now int64) int64 {
	s.now, s.next = now, FarFuture
	for _, src := range s.sources {
		src(s.observe)
	}
	return s.next
}

// Jump returns how many cycles the simulation may advance past now
// without iterating: 0 when the next cycle needs a full iteration,
// otherwise a jump clamped to the remaining Step budget and the watchdog
// deadline (a wedged model must fail at the same cycle in skip and tick
// mode; Drive's check-slice cadence — cancellation, interval cuts — is
// unchanged by skipping). A non-zero jump is recorded in SkipStats.
func (s *Skipper) Jump(now, budget int64, wd *engine.Watchdog) int64 {
	if budget <= 0 {
		return 0
	}
	j := s.NextEvent(now) - 1 - now
	if j <= 0 {
		return 0
	}
	if j > budget {
		j = budget
	}
	if d := wd.Deadline() - now; j > d {
		j = d
	}
	s.skippedCycles += j
	s.skipSpans++
	return j
}

// SkipStats reports how many cycles were skipped rather than iterated and
// across how many idle spans. Diagnostics only — deliberately not part of
// stats.Counters, whose JSON form the goldens pin byte-exactly.
func (s *Skipper) SkipStats() (cycles, spans int64) {
	return s.skippedCycles, s.skipSpans
}
