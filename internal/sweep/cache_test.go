package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"fxa/internal/engine"
)

type testFingerprint struct {
	Model    string
	Workload string
	MaxInsts uint64
}

func TestKeyIsStableAndSensitive(t *testing.T) {
	a := testFingerprint{"BIG", "mcf", 100}
	k1, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same fingerprint hashed to different keys")
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	for _, other := range []testFingerprint{
		{"BIG", "mcf", 101},
		{"BIG", "lbm", 100},
		{"HALF", "mcf", 100},
	} {
		k, err := Key(other)
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("fingerprint %+v collided with %+v", other, a)
		}
	}
}

func TestKeyRejectsUnserializableFingerprint(t *testing.T) {
	if _, err := Key(func() {}); err == nil {
		t.Fatal("want error for unserializable fingerprint")
	}
}

// sampleResult builds a Result with every top-level field populated so
// the JSON round-trip is exercised end to end.
func sampleResult() engine.Result {
	var r engine.Result
	r.Model = "HALF+FX"
	r.Counters.Cycles = 123456
	r.Counters.Committed = 300000
	r.Counters.IXUExec = 150000
	r.Counters.IXUExecByStage = [8]uint64{9, 8, 7, 0, 0, 0, 0, 0}
	r.Counters.FUOps[0] = 42
	r.L1I.Reads = 100
	r.L1D.WriteMiss = 7
	r.L2.Writebacks = 3
	r.DRAM = 11
	r.Bpred.CondLookups = 999
	r.StoreSet.Violations = 2
	return r
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(testFingerprint{"HALF+FX", "mcf", 300000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := sampleResult()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d (%v), want 1", n, err)
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(testFingerprint{"BIG", "mcf", 1})
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}
	// The corrupt file must have been dropped.
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
}

func TestEngineUsesCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	mkJobs := func() []Job {
		jobs := make([]Job, 10)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				Label:       "cached",
				Fingerprint: testFingerprint{"BIG", "w", uint64(i)},
				Run: func(ctx context.Context) (engine.Result, error) {
					executions.Add(1)
					var r engine.Result
					r.Counters.Committed = uint64(100 + i)
					return r, nil
				},
			}
		}
		return jobs
	}

	first, s1, err := Run(context.Background(), mkJobs(), Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHits != 0 || s1.CacheMisses != 10 || executions.Load() != 10 {
		t.Fatalf("first run: stats=%+v execs=%d, want 10 misses", s1, executions.Load())
	}

	second, s2, err := Run(context.Background(), mkJobs(), Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s2.CacheHits != 10 || s2.CacheMisses != 0 {
		t.Fatalf("second run: stats=%+v, want 10 hits", s2)
	}
	if executions.Load() != 10 {
		t.Fatalf("cached run re-executed jobs: %d executions", executions.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached results differ from computed results")
	}

	// A nil fingerprint must bypass the cache entirely.
	jobs := mkJobs()
	for i := range jobs {
		jobs[i].Fingerprint = nil
	}
	_, s3, err := Run(context.Background(), jobs, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s3.CacheHits != 0 || s3.Ran != 10 {
		t.Fatalf("nil fingerprint: stats=%+v, want all run", s3)
	}
}
