package sampling

// End-to-end sampled-simulation benchmark: functional fast-forward
// (dominant, via the emulator's block-stepping fast path) interleaved
// with parallel detailed windows through the sweep engine. Its units
// count different instructions over different times, so each names
// both:
//
//   - ns/span-inst: the whole run's wall time per instruction of the
//     sampled span, fast-forwarded plus detailed.
//   - det-Minst/wall-s: detailed instructions per second of the sweep's
//     wall time; det-Minst/s, per second of detailed-simulation time.
//   - ff-Minst/s: Summary.Sweep.FFInstsPerSec, the number to watch when
//     tuning the fast-forward path, since skips outnumber detailed
//     instructions by the sampling ratio.

import (
	"context"
	"testing"

	"fxa/internal/config"
	"fxa/internal/workload"
)

func BenchmarkSamplingEndToEnd(b *testing.B) {
	w, ok := workload.ByName("hmmer")
	if !ok {
		b.Fatal("unknown workload")
	}
	cfg := Config{Intervals: 4, IntervalInsts: 5_000, SkipInsts: 100_000}
	b.ReportAllocs()
	var last Summary
	for i := 0; i < b.N; i++ {
		sum, err := Run(context.Background(), config.HalfFX(), w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = sum
	}
	total := uint64(cfg.Intervals)*cfg.IntervalInsts + last.FFInsts()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/span-inst")
	// Report the sweep-level throughput metrics (ff-Minst/s and friends)
	// through the shared plumbing, whose units the perfgate's direction
	// table knows.
	for _, m := range last.Sweep.BenchMetrics() {
		b.ReportMetric(m.Value, m.Unit)
	}
}
