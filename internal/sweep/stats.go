package sweep

import (
	"fmt"
	"time"
)

// Stats summarize one engine run: how much work was done, how much the
// cache saved, and the aggregate simulation throughput.
type Stats struct {
	Jobs        int           // jobs submitted
	Ran         int           // jobs actually simulated (cache misses that succeeded)
	CacheHits   int           // jobs answered from the result cache
	CacheMisses int           // jobs that had to simulate (== Ran on success)
	Collapsed   int           // jobs answered from a concurrent identical run (singleflight)
	Errors      int           // jobs that failed (panic, error, or cancellation)
	Workers     int           // worker-pool size used
	SimInsts    uint64        // committed instructions across all simulated jobs
	SimCycles   uint64        // simulated cycles across all simulated jobs
	Wall        time.Duration // wall-clock time of the whole run

	// Allocs and AllocBytes are the process-wide heap-allocation deltas
	// (runtime.MemStats Mallocs / TotalAlloc) across the run. They are a
	// sweep-level view of the simulator's allocation discipline: with the
	// core's pooled hot loop they stay roughly constant per job (cold-start
	// structures) instead of scaling with simulated instructions. Other
	// goroutines in the process contribute too, so treat them as an upper
	// bound.
	Allocs     uint64
	AllocBytes uint64

	// DetailedTime is the wall time spent inside detailed (cycle-level)
	// simulation, summed over the jobs that actually ran — cache hits and
	// singleflight followers contribute nothing, and with several workers
	// the sum exceeds Wall. Against SimInsts it yields the detailed-phase
	// throughput proper (DetailedInstsPerSec), which Wall-based InstsPerSec
	// understates whenever the run was padded by cache lookups, event
	// delivery, or idle workers.
	DetailedTime time.Duration

	// FFInsts and FFTime account the functional fast-forward that fed
	// the sweep, when the caller did any (sampled simulation advances a
	// functional machine serially between detailed windows; see
	// internal/sampling). The engine itself never fast-forwards, so
	// Run leaves them zero — callers that interleave fast-forward with
	// job submission fill them in on the returned Stats so one struct
	// describes the whole end-to-end run.
	FFInsts uint64
	FFTime  time.Duration
}

// AllocsPerKInst returns heap allocations per thousand committed
// instructions (0 when nothing ran).
func (s Stats) AllocsPerKInst() float64 {
	if s.SimInsts == 0 {
		return 0
	}
	return float64(s.Allocs) / (float64(s.SimInsts) / 1e3)
}

// InstsPerSec returns the aggregate simulation throughput in committed
// instructions per wall-clock second (0 when nothing ran).
func (s Stats) InstsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SimInsts) / s.Wall.Seconds()
}

// DetailedInstsPerSec returns the detailed-simulation throughput in
// committed instructions per second of accumulated detailed-phase time
// (0 when nothing ran). This is per-core throughput summed over workers'
// busy time, not wall-clock aggregate: a single-worker run reports the
// same number a saturated pool does.
func (s Stats) DetailedInstsPerSec() float64 {
	if s.DetailedTime <= 0 {
		return 0
	}
	return float64(s.SimInsts) / s.DetailedTime.Seconds()
}

// FFInstsPerSec returns the functional fast-forward throughput in
// instructions per second of fast-forward wall time (0 when the run did
// no fast-forwarding).
func (s Stats) FFInstsPerSec() float64 {
	if s.FFTime <= 0 {
		return 0
	}
	return float64(s.FFInsts) / s.FFTime.Seconds()
}

// BenchMetric is one benchmark-ready measurement derived from a sweep
// run, in the (value, unit) shape testing.B.ReportMetric consumes.
type BenchMetric struct {
	Value float64
	Unit  string
}

// BenchMetrics returns the sweep's throughput and allocation metrics in
// a fixed, deterministic order, for benchmarks that report a whole run
// through testing.B.ReportMetric (internal/sampling's end-to-end bench).
// Each unit names what it counts, and the perfgate's direction table
// knows them: "det-Minst/wall-s" is detailed (committed) instructions
// per second of the run's wall time, "det-Minst/s" the same instructions
// per second of detailed-simulation time, and "ff-Minst/s" fast-forwarded
// instructions per second of fast-forward time — all higher-is-better —
// while "allocs/Kinst" is a lower-is-better allocation-discipline signal.
// Metrics whose inputs were not measured (no fast-forward, no allocation
// accounting) are omitted rather than reported as zero, so the gate
// never compares a meaningless 0.
func (s Stats) BenchMetrics() []BenchMetric {
	var m []BenchMetric
	if s.SimInsts > 0 && s.Wall > 0 {
		m = append(m, BenchMetric{s.InstsPerSec() / 1e6, "det-Minst/wall-s"})
	}
	if s.SimInsts > 0 && s.DetailedTime > 0 {
		m = append(m, BenchMetric{s.DetailedInstsPerSec() / 1e6, "det-Minst/s"})
	}
	if s.SimInsts > 0 && s.Allocs > 0 {
		m = append(m, BenchMetric{s.AllocsPerKInst(), "allocs/Kinst"})
	}
	if s.FFInsts > 0 && s.FFTime > 0 {
		m = append(m, BenchMetric{s.FFInstsPerSec() / 1e6, "ff-Minst/s"})
	}
	return m
}

// String renders a one-line human-readable summary, e.g.
//
//	145 jobs in 2.31s (8 workers): 140 run, 5 cache hits, 42.0 Minst, 18.2 Minst/s
func (s Stats) String() string {
	line := fmt.Sprintf("%d jobs in %s (%d workers): %d run, %d cache hit",
		s.Jobs, s.Wall.Round(10*time.Millisecond), s.Workers, s.Ran, s.CacheHits)
	if s.CacheHits != 1 {
		line += "s"
	}
	if s.Collapsed > 0 {
		line += fmt.Sprintf(", %d collapsed", s.Collapsed)
	}
	line += fmt.Sprintf(", %.1f Minst, %.1f Minst/s",
		float64(s.SimInsts)/1e6, s.InstsPerSec()/1e6)
	if s.DetailedTime > 0 && s.SimInsts > 0 {
		line += fmt.Sprintf(", det %.1f Minst/s", s.DetailedInstsPerSec()/1e6)
	}
	if s.Allocs > 0 && s.SimInsts > 0 {
		line += fmt.Sprintf(", %.1f allocs/Kinst", s.AllocsPerKInst())
	}
	if s.FFInsts > 0 {
		line += fmt.Sprintf(", ff %.1f Minst at %.0f Minst/s",
			float64(s.FFInsts)/1e6, s.FFInstsPerSec()/1e6)
	}
	if s.Errors > 0 {
		line += fmt.Sprintf(", %d errors", s.Errors)
	}
	return line
}
