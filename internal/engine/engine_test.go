package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/stats"
)

// fakeEngine is a minimal Engine for exercising Drive: it "commits" one
// instruction per cycle until total instructions have run, and records
// whether Abort was invoked.
type fakeEngine struct {
	cycles    int64
	committed uint64
	total     uint64
	aborted   bool
	rob, iq   int
}

func (f *fakeEngine) Run(ctx context.Context) (Result, error) { return Drive(ctx, f, Options{}) }

func (f *fakeEngine) Step(nCycles int64) (bool, error) {
	for n := int64(0); n < nCycles; n++ {
		if f.committed >= f.total {
			return true, nil
		}
		f.cycles++
		f.committed++
	}
	return f.committed >= f.total, nil
}

func (f *fakeEngine) Result() Result {
	var c stats.Counters
	c.Cycles = uint64(f.cycles)
	c.Committed = f.committed
	return Result{SchemaVersion: ResultSchemaVersion, Model: "fake", Counters: c}
}

func (f *fakeEngine) Abort()                { f.aborted = true }
func (f *fakeEngine) Occupancy() (int, int) { return f.rob, f.iq }

func TestDriveRunsToCompletion(t *testing.T) {
	e := &fakeEngine{total: 10_000}
	res, err := Drive(context.Background(), e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed != 10_000 {
		t.Fatalf("committed %d, want 10000", res.Counters.Committed)
	}
	if len(res.Intervals) != 0 {
		t.Fatalf("intervals collected without being requested: %d", len(res.Intervals))
	}
}

func TestDriveCancellationAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &fakeEngine{total: 1 << 40} // effectively endless
	_, err := Drive(ctx, e, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !e.aborted {
		t.Error("cancellation did not abort the engine")
	}
	// A pre-cancelled context must stop the run after a single Step
	// slice — the cancellation check runs between slices.
	if e.cycles > DefaultCheckEvery {
		t.Errorf("simulated %d cycles after cancellation, want <= %d", e.cycles, DefaultCheckEvery)
	}
}

func TestDriveIntervalSeriesPartitionsRun(t *testing.T) {
	e := &fakeEngine{total: 50_000, rob: 17, iq: 5}
	res, err := Drive(context.Background(), e, Options{IntervalInsts: 10_000, CheckEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no intervals collected")
	}
	var cyc, insts uint64
	var prevEnd uint64
	for i, iv := range res.Intervals {
		if iv.Index != i {
			t.Errorf("interval %d has index %d", i, iv.Index)
		}
		if iv.EndInst <= prevEnd {
			t.Errorf("interval %d: EndInst %d not increasing past %d", i, iv.EndInst, prevEnd)
		}
		prevEnd = iv.EndInst
		cyc += iv.Counters.Cycles
		insts += iv.Counters.Committed
	}
	if cyc != res.Counters.Cycles || insts != res.Counters.Committed {
		t.Fatalf("interval sums (%d cycles, %d insts) != run totals (%d, %d)",
			cyc, insts, res.Counters.Cycles, res.Counters.Committed)
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.EndInst != res.Counters.Committed || last.EndCycle != res.Counters.Cycles {
		t.Fatalf("tail interval ends at (%d, %d), run at (%d, %d)",
			last.EndCycle, last.EndInst, res.Counters.Cycles, res.Counters.Committed)
	}
	if res.Intervals[0].ROBOcc != 17 || res.Intervals[0].IQOcc != 5 {
		t.Errorf("occupancy sample (%d, %d), want (17, 5)",
			res.Intervals[0].ROBOcc, res.Intervals[0].IQOcc)
	}
}

func TestDriveWarmupMarkCutsPrefix(t *testing.T) {
	e := &fakeEngine{total: 50_000, rob: 9, iq: 3}
	res, err := Drive(context.Background(), e, Options{WarmupInsts: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmup == nil {
		t.Fatal("no warm-up prefix attached")
	}
	// The fake commits one instruction per cycle, so the geometric
	// slice-shrink must land the cut exactly on the mark.
	if res.Warmup.Counters.Committed != 1234 {
		t.Errorf("warm-up committed %d, want exactly 1234", res.Warmup.Counters.Committed)
	}
	if res.Warmup.ROBOcc != 9 || res.Warmup.IQOcc != 3 {
		t.Errorf("warm-up occupancy (%d, %d), want (9, 3)", res.Warmup.ROBOcc, res.Warmup.IQOcc)
	}
	// The mark is observation-only: cumulative counters are unaffected.
	if res.Counters.Committed != 50_000 {
		t.Errorf("committed %d, want 50000", res.Counters.Committed)
	}
	// Warm-up prefix plus measured remainder reproduce the whole run.
	meas := res.WarmExcluded()
	if got := meas.Counters.Committed + res.Warmup.Counters.Committed; got != res.Counters.Committed {
		t.Errorf("warmup %d + measured %d != total %d",
			res.Warmup.Counters.Committed, meas.Counters.Committed, res.Counters.Committed)
	}
	if meas.Warmup != nil {
		t.Error("WarmExcluded result still carries a warm-up prefix")
	}
}

func TestDriveWarmupMarkPastRunEnd(t *testing.T) {
	e := &fakeEngine{total: 700}
	res, err := Drive(context.Background(), e, Options{WarmupInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmup == nil {
		t.Fatal("no warm-up prefix attached")
	}
	// The run ended before the mark: the whole run is warm-up and the
	// measured remainder is empty.
	if res.Warmup.Counters.Committed != 700 {
		t.Errorf("warm-up committed %d, want the whole 700-inst run", res.Warmup.Counters.Committed)
	}
	if meas := res.WarmExcluded(); meas.Counters.Committed != 0 || meas.Counters.Cycles != 0 {
		t.Errorf("measured remainder not empty: %d insts, %d cycles",
			meas.Counters.Committed, meas.Counters.Cycles)
	}
}

func TestDriveWarmupWithIntervals(t *testing.T) {
	// Warm-up and interval collection are orthogonal observers: the
	// interval series still partitions the whole run.
	e := &fakeEngine{total: 40_000}
	res, err := Drive(context.Background(), e, Options{WarmupInsts: 3_000, IntervalInsts: 10_000, CheckEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmup == nil || res.Warmup.Counters.Committed != 3_000 {
		t.Fatalf("warm-up prefix %+v, want a 3000-inst cut", res.Warmup)
	}
	var insts uint64
	for _, iv := range res.Intervals {
		insts += iv.Counters.Committed
	}
	if insts != res.Counters.Committed {
		t.Fatalf("interval sums %d != run total %d with warm-up enabled", insts, res.Counters.Committed)
	}
}

func TestWarmExcludedWithoutMark(t *testing.T) {
	e := &fakeEngine{total: 100}
	res, err := Drive(context.Background(), e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmup != nil {
		t.Fatal("warm-up attached without being requested")
	}
	if meas := res.WarmExcluded(); meas.Counters != res.Counters {
		t.Error("WarmExcluded changed an unmarked result")
	}
}

func TestRegistryRejectsUnknownKind(t *testing.T) {
	// The engine package itself registers nothing; an unregistered kind
	// must produce a descriptive error, not a panic.
	m := config.Model{Name: "mystery", Kind: config.CoreKind(200)}
	if _, err := New(m, &seqTrace{}); err == nil ||
		!strings.Contains(err.Error(), "no engine registered") {
		t.Fatalf("err = %v, want a no-engine-registered error", err)
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	kind := config.CoreKind(201)
	ctor := func(m config.Model, tr Trace) (Engine, error) { return &fakeEngine{}, nil }
	Register(kind, ctor)
	if got := mustPanic(t, func() { Register(kind, ctor) }); !strings.Contains(got, "registered twice") {
		t.Errorf("duplicate Register panicked with %q", got)
	}
	if got := mustPanic(t, func() { Register(config.CoreKind(202), nil) }); !strings.Contains(got, "nil constructor") {
		t.Errorf("nil Register panicked with %q", got)
	}
}

func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if s, ok := r.(string); ok {
			msg = s
		}
	}()
	f()
	return
}

// seqTrace yields n records with ascending Seq through Next only.
type seqTrace struct {
	next, n uint64
}

func (s *seqTrace) Next() (emu.Record, bool) {
	if s.next >= s.n {
		return emu.Record{}, false
	}
	r := emu.Record{Seq: s.next}
	s.next++
	return r, true
}

// batchSeqTrace additionally implements BatchTrace with deliberately
// short (non-full) refills, which the contract allows.
type batchSeqTrace struct {
	seqTrace
	batch int
}

func (b *batchSeqTrace) NextBatch(buf []emu.Record) int {
	n := 0
	for n < len(buf) && n < b.batch {
		r, ok := b.seqTrace.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

func drainReader(t *testing.T, r TraceReader) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		rec := r.Next()
		if rec == nil {
			break
		}
		seqs = append(seqs, rec.Seq)
	}
	if !r.Done() {
		t.Error("reader not Done after end of trace")
	}
	if r.Next() != nil {
		t.Error("Next returned a record after Done")
	}
	return seqs
}

func TestTraceReaderBatchingMatchesUnbatched(t *testing.T) {
	const n = 1000
	plain := drainReader(t, NewTraceReader(&seqTrace{n: n}))
	// A short-refill batcher (batch 7, never a full TraceBatch) must
	// yield the identical sequence.
	batched := drainReader(t, NewTraceReader(&batchSeqTrace{seqTrace: seqTrace{n: n}, batch: 7}))
	if len(plain) != n || len(batched) != n {
		t.Fatalf("got %d plain, %d batched records, want %d", len(plain), len(batched), n)
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("record %d: plain seq %d, batched seq %d", i, plain[i], batched[i])
		}
	}
}

func TestTraceReaderEmptyTrace(t *testing.T) {
	if got := drainReader(t, NewTraceReader(&seqTrace{n: 0})); len(got) != 0 {
		t.Fatalf("empty trace yielded %d records", len(got))
	}
	if got := drainReader(t, NewTraceReader(&batchSeqTrace{batch: 8})); len(got) != 0 {
		t.Fatalf("empty batched trace yielded %d records", len(got))
	}
}

func TestWatchdog(t *testing.T) {
	var wd Watchdog
	if wd.Stuck(DeadlockWindow) {
		t.Error("stuck exactly at the window edge")
	}
	if !wd.Stuck(DeadlockWindow + 1) {
		t.Error("not stuck past the window")
	}
	wd.Progress(500_000)
	if wd.Stuck(500_000 + DeadlockWindow) {
		t.Error("stuck despite recent progress")
	}
	err := wd.Fail("HALF+FX", 123, "rob=1 iq=2 fe=3")
	want := "engine: HALF+FX deadlocked at cycle 123 (rob=1 iq=2 fe=3)"
	if err == nil || err.Error() != want {
		t.Errorf("Fail = %v, want %q", err, want)
	}
}
