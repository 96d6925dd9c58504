package main

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fxa"
	"fxa/internal/sampling"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {9, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900},
		{999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rankOf(p, tc.n) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", tc.n, p, tc.n-rankOf(p, tc.n))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	sp := func(id, parent int, a, b int64) *span {
		return &span{ID: id, Parent: parent, Start: a, End: b}
	}
	spans := []*span{
		sp(0, -1, 0, 100),
		sp(1, 0, 10, 40),
		sp(2, 0, 30, 60),    // overlaps child 1: counted once
		sp(3, 0, 80, 90),    // disjoint
		sp(4, 0, 95, 120),   // clipped to the parent's end
		sp(5, 1, 15, 25),    // grandchild: only reduces child 1
		sp(6, -1, 200, 210), // another root, no children
	}
	self := selfTimes(spans)
	want := []int64{100 - (50 + 10 + 5), 30 - 10, 30, 10, 25, 10, 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestRusageCPUNeverDecreases(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := processCPU(), threadCPU()
	prevP, prevT := p0, t0
	x := 1.0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
		p, th := processCPU(), threadCPU()
		if p < prevP || th < prevT {
			t.Fatalf("CPU time went backwards: process %v -> %v, thread %v -> %v", prevP, p, prevT, th)
		}
		prevP, prevT = p, th
	}
	if prevP <= p0 || prevT <= t0 {
		t.Fatalf("50ms of spinning moved no CPU time (process %v -> %v, thread %v -> %v, %v)", p0, prevP, t0, prevT, x)
	}
}

func TestSeedFixesOpList(t *testing.T) {
	keys := func(cs []cell) []string {
		var ks []string
		for _, c := range cs {
			ks = append(ks, c.key())
		}
		return ks
	}
	if a, b := keys(evalOrder(7)), keys(evalOrder(7)); !reflect.DeepEqual(a, b) {
		t.Error("eval-matrix: one seed gave two orders")
	}
	if reflect.DeepEqual(keys(evalOrder(7)), keys(evalOrder(8))) {
		t.Error("eval-matrix: two seeds gave one order")
	}

	passes := func(seed uint64) []string {
		var ks []string
		for p := 0; p < 5; p++ {
			for _, o := range sampledPass(seed, p) {
				ks = append(ks, o.key())
			}
		}
		return ks
	}
	if !reflect.DeepEqual(passes(7), passes(7)) {
		t.Error("sampled-span: one seed gave two op lists")
	}
	if reflect.DeepEqual(passes(7), passes(8)) {
		t.Error("sampled-span: two seeds gave one op list")
	}

	ops := func(seed uint64) []string {
		pools := servePools(seed)
		var ks []string
		for c, pool := range pools {
			g := newClientGen(seed, c, pool)
			for i := 0; i < 50; i++ {
				op, err := g.next()
				if err != nil {
					t.Fatal(err)
				}
				ks = append(ks, op.Cell.key())
				if op.Fresh != (i%2 == 0) {
					t.Fatalf("op %d: fresh=%v breaks the fixed fresh/repeat split", i, op.Fresh)
				}
			}
		}
		return ks
	}
	if !reflect.DeepEqual(ops(7), ops(7)) {
		t.Error("serve-routed: one seed gave two op lists")
	}
	if reflect.DeepEqual(ops(7), ops(8)) {
		t.Error("serve-routed: two seeds gave one op list")
	}
}

// TestServePoolsDisjoint checks what makes serve-routed's outcomes
// timing-free: no cell appears twice across the clients' pools, which
// together hold the whole matrix at every budget.
func TestServePoolsDisjoint(t *testing.T) {
	seen := map[string]bool{}
	for _, pool := range servePools(7) {
		for _, c := range pool {
			if seen[c.key()] {
				t.Fatalf("cell %s is in the pools twice", c.key())
			}
			seen[c.key()] = true
		}
	}
	if want := len(serveBudgets) * len(matrix(0)); len(seen) != want {
		t.Fatalf("pools hold %d cells, want %d", len(seen), want)
	}
}

func TestClientGenRunsOut(t *testing.T) {
	g := newClientGen(1, 0, evalOrder(1)[:1])
	for i := 0; i < 2; i++ {
		if _, err := g.next(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := g.next(); !errors.Is(err, errPoolExhausted) {
		t.Fatalf("third op of a one-cell pool: err %v, want errPoolExhausted", err)
	}
}

func TestReferenceCoversEveryInput(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	cells := evalOrder(1)
	for _, p := range servePools(1) {
		cells = append(cells, p...)
	}
	for _, c := range cells {
		if _, ok := ref.Cells[c.key()]; !ok {
			t.Errorf("no reference digest for cell %s", c.key())
		}
	}
	for _, o := range sampledOps() {
		if ref.Sampled[o.key()] == "" {
			t.Errorf("no reference digest for sampled op %s", o.key())
		}
	}
}

// TestReplayMatchesSamplingRun checks that the traced replay does
// sampling.Run's work: it must reproduce Summary.PerInterval bit for bit.
// It runs on one sampled-span op and on BenchmarkSamplingEndToEnd's
// schedule (hmmer, 4 windows of 5000 after 100k skips, no warm-up) and
// logs each one's phase split; `go test -v -run Replay` prints them.
func TestReplayMatchesSamplingRun(t *testing.T) {
	hmmer, err := fxa.WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []sampledOp{
		newSampledOp("mcf", 3),
		{hmmer, sampling.Config{Intervals: 4, IntervalInsts: 5_000, SkipInsts: 100_000, Workers: 1}},
	} {
		sum, err := sampling.Run(context.Background(), fxa.HalfFX(), op.Workload, op.Config)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		runtime.LockOSThread()
		t0 := time.Now()
		got, err := sampledReplay(tr, 0, fxa.HalfFX(), op)
		wall := time.Since(t0)
		runtime.UnlockOSThread()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(sum.PerInterval)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Errorf("%s: replay windows differ from Summary.PerInterval", op.key())
		}
		self := selfTimes(tr.spans)
		byName := map[string]int64{}
		for _, s := range tr.spans {
			byName[s.Name] += self[s.ID]
		}
		t.Logf("%s (skip %d before each window of %d+%d), %v:", op.key(),
			op.Config.SkipInsts, op.Config.WarmupInsts, op.Config.IntervalInsts, wall)
		for _, n := range []string{"Machine.Run", "Machine.Clone", "engine.New", "engine.Drive", "workload.Params.Build", "emu.New", "op"} {
			t.Logf("  %-22s %5.1f%%", n, 100*float64(byName[n])/float64(wall))
		}
	}
}
