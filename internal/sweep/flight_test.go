package sweep

// Singleflight semantics of the shared cache: concurrent identical jobs
// collapse onto one simulation, leader failures are never shared, and
// the lifetime counters account for every path. The jobs here are
// channel-gated stand-ins so the interleavings are deterministic: the
// test controls exactly when the leader starts and finishes, and waits
// on the cache's own miss counter to know the followers are parked on
// the flight before releasing the leader.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fxa/internal/engine"
)

// waitStats polls the cache counters until cond holds, failing the test
// after a generous bound. The counters are atomics, so this is the
// race-free way to observe "the followers have missed the disk cache and
// parked on the flight".
func waitStats(t *testing.T, c *Cache, cond func(CacheStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(c.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("cache stats never reached expected state: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func gatedJob(started chan<- struct{}, release <-chan struct{}, run func() (engine.Result, error)) Job {
	return Job{
		Label:       "gated",
		Fingerprint: "flight-test-key",
		Run: func(ctx context.Context) (engine.Result, error) {
			started <- struct{}{}
			<-release
			return run()
		},
	}
}

func TestSingleflightCollapsesConcurrentIdenticalJobs(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	runs := 0 // guarded by the gate: only one goroutine can be past <-release
	job := gatedJob(started, release, func() (engine.Result, error) {
		runs++
		res := engine.Result{}
		res.Counters.Committed = 42
		return res, nil
	})

	type outcome struct {
		res         engine.Result
		hit, shared bool
		err         error
	}
	results := make(chan outcome, 4)
	worker := func() {
		res, hit, shared, err := RunOne(context.Background(), job, cache)
		results <- outcome{res, hit, shared, err}
	}

	// Leader first: wait until it is inside Run (flight registered).
	go worker()
	<-started
	// Then three followers: each misses the disk cache (miss #2..#4) and
	// parks on the leader's flight. The leader's own miss was #1.
	for i := 0; i < 3; i++ {
		go worker()
	}
	waitStats(t, cache, func(s CacheStats) bool { return s.Misses == 4 })
	close(release)

	var leaders, collapsed int
	for i := 0; i < 4; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("worker error: %v", o.err)
		}
		if o.res.Counters.Committed != 42 {
			t.Fatalf("worker got Committed=%d, want 42", o.res.Counters.Committed)
		}
		switch {
		case !o.hit && !o.shared:
			leaders++
		case o.shared:
			collapsed++
		}
	}
	if leaders != 1 {
		t.Errorf("%d jobs simulated, want exactly 1", leaders)
	}
	if collapsed != 3 {
		t.Errorf("%d jobs collapsed onto the leader, want 3", collapsed)
	}
	if runs != 1 {
		t.Errorf("run executed %d times, want 1", runs)
	}
	st := cache.Stats()
	if st.Puts != 1 || st.Collapsed != 3 {
		t.Errorf("stats %+v, want Puts=1 Collapsed=3", st)
	}

	// The key is now on disk: a fresh caller is a plain hit.
	res, hit, shared, err := RunOne(context.Background(), job, cache)
	if err != nil || !hit || shared {
		t.Fatalf("post-flight call: hit=%v shared=%v err=%v, want disk hit", hit, shared, err)
	}
	if res.Counters.Committed != 42 {
		t.Errorf("disk hit Committed=%d, want 42", res.Counters.Committed)
	}
	if got := cache.Stats().Hits; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
}

func TestSingleflightLeaderFailureIsNotShared(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 3)
	release1 := make(chan struct{}) // gates the failing first leader
	release2 := make(chan struct{}) // gates the succeeding second leader
	var mu sync.Mutex
	runs := 0
	wantErr := errors.New("leader exploded")
	job := Job{
		Label:       "flaky",
		Fingerprint: "leader-failure-key",
		Run: func(ctx context.Context) (engine.Result, error) {
			mu.Lock()
			n := runs
			runs++
			mu.Unlock()
			started <- struct{}{}
			if n == 0 {
				<-release1
				return engine.Result{}, wantErr
			}
			<-release2
			res := engine.Result{}
			res.Counters.Committed = 7
			return res, nil
		},
	}

	type outcome struct {
		hit, shared bool
		err         error
	}
	results := make(chan outcome, 3)
	worker := func() {
		_, hit, shared, err := RunOne(context.Background(), job, cache)
		results <- outcome{hit, shared, err}
	}

	go worker() // leader 1
	<-started
	go worker() // followers park on leader 1's flight (misses 2 and 3)
	go worker()
	waitStats(t, cache, func(s CacheStats) bool { return s.Misses == 3 })
	close(release1) // leader 1 fails; nothing may be shared from it

	// The followers retry independently: both re-miss the disk cache
	// (misses 4 and 5), one becomes leader 2 and blocks on its gate, the
	// other parks on leader 2's flight.
	<-started
	waitStats(t, cache, func(s CacheStats) bool { return s.Misses == 5 })
	close(release2)

	var errs, ok int
	for i := 0; i < 3; i++ {
		o := <-results
		switch {
		case errors.Is(o.err, wantErr):
			errs++
		case o.err != nil:
			t.Fatalf("unexpected error: %v", o.err)
		default:
			ok++
		}
	}
	if errs != 1 || ok != 2 {
		t.Errorf("outcomes: %d failed, %d succeeded; want exactly the leader to fail", errs, ok)
	}
	mu.Lock()
	if runs != 2 {
		t.Errorf("run executed %d times, want 2 (failed leader + retry leader)", runs)
	}
	mu.Unlock()
	st := cache.Stats()
	if st.Collapsed != 1 {
		t.Errorf("collapsed = %d, want 1 (only the retry round shares)", st.Collapsed)
	}
	if st.Puts != 1 {
		t.Errorf("puts = %d, want 1 (failures are not cached)", st.Puts)
	}
}

func TestSingleflightFollowerCancellation(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	job := gatedJob(started, release, func() (engine.Result, error) {
		return engine.Result{}, nil
	})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _, _ = RunOne(context.Background(), job, cache)
	}()
	<-started

	// A follower whose own context dies while parked on the flight must
	// return its context error, not block until the leader finishes.
	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, _, _, err := RunOne(ctx, job, cache)
		followerErr <- err
	}()
	waitStats(t, cache, func(s CacheStats) bool { return s.Misses == 2 })
	cancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower still blocked on the leader's flight")
	}
	close(release) // let the leader finish
	<-leaderDone   // and Put its entry before the cache directory is removed
}
