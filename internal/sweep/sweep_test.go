package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fxa/internal/engine"
)

// fakeJob returns a job whose Result encodes i in its counters, so
// ordering mistakes are detectable.
func fakeJob(i int) Job {
	return Job{
		Label: fmt.Sprintf("job-%d", i),
		Run: func(ctx context.Context) (engine.Result, error) {
			var r engine.Result
			r.Model = fmt.Sprintf("job-%d", i)
			r.Counters.Committed = uint64(1000 + i)
			r.Counters.Cycles = uint64(10 + i)
			return r, nil
		},
	}
}

func TestRunAssemblesResultsInJobOrder(t *testing.T) {
	const n = 64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	res, stats, err := Run(context.Background(), jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := uint64(1000 + i); r.Counters.Committed != want {
			t.Errorf("result %d: committed %d, want %d", i, r.Counters.Committed, want)
		}
	}
	if stats.Jobs != n || stats.Ran != n || stats.Errors != 0 {
		t.Errorf("stats = %+v, want %d jobs all run", stats, n)
	}
	if stats.Workers != 8 {
		t.Errorf("workers = %d, want 8", stats.Workers)
	}
	var wantInsts uint64
	for i := 0; i < n; i++ {
		wantInsts += uint64(1000 + i)
	}
	if stats.SimInsts != wantInsts {
		t.Errorf("SimInsts = %d, want %d", stats.SimInsts, wantInsts)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	serial, _, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := Run(context.Background(), jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel results differ from serial results")
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	jobs := []Job{
		fakeJob(0),
		{Label: "boom", Run: func(ctx context.Context) (engine.Result, error) {
			panic("kaboom")
		}},
		fakeJob(2),
	}
	_, stats, err := Run(context.Background(), jobs, Options{Workers: 1, Errors: CollectAll})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
	if !strings.Contains(err.Error(), `"boom"`) {
		t.Errorf("err should name the job label: %v", err)
	}
	if stats.Errors != 1 || stats.Ran != 2 {
		t.Errorf("stats = %+v, want 1 error, 2 run", stats)
	}
}

func TestFailFastReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("error-a")
	errB := errors.New("error-b")
	jobs := []Job{
		{Label: "slow-fail", Run: func(ctx context.Context) (engine.Result, error) {
			time.Sleep(30 * time.Millisecond)
			return engine.Result{}, errA
		}},
		{Label: "fast-fail", Run: func(ctx context.Context) (engine.Result, error) {
			return engine.Result{}, errB
		}},
	}
	_, _, err := Run(context.Background(), jobs, Options{Workers: 2, Errors: FailFast})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-indexed job error %v", err, errA)
	}
}

func TestCollectAllReportsEveryError(t *testing.T) {
	mkFail := func(i int) Job {
		return Job{Label: fmt.Sprintf("fail-%d", i),
			Run: func(ctx context.Context) (engine.Result, error) {
				return engine.Result{}, fmt.Errorf("failure %d", i)
			}}
	}
	jobs := []Job{mkFail(0), fakeJob(1), mkFail(2)}
	res, stats, err := Run(context.Background(), jobs, Options{Workers: 2, Errors: CollectAll})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"failure 0", "failure 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if stats.Errors != 2 {
		t.Errorf("stats.Errors = %d, want 2", stats.Errors)
	}
	// The successful job's result must survive.
	if res[1].Counters.Committed != 1001 {
		t.Errorf("successful job result lost: %+v", res[1])
	}
}

func TestCancellationDrainsPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	const n = 100
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("j%d", i),
			Run: func(ctx context.Context) (engine.Result, error) {
				if started.Add(1) == 2 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return engine.Result{}, ctx.Err()
				case <-time.After(5 * time.Millisecond):
				}
				return engine.Result{}, nil
			}}
	}
	_, stats, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The pool must drain: far fewer than all jobs may start after the
	// cancellation point.
	if got := started.Load(); got > 10 {
		t.Errorf("%d jobs started after cancellation, pool did not drain", got)
	}
	if stats.Jobs != n {
		t.Errorf("stats.Jobs = %d, want %d", stats.Jobs, n)
	}
}

func TestEventsAreSerializedAndComplete(t *testing.T) {
	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	var events []Event // appended from the single dispatcher goroutine
	_, _, err := Run(context.Background(), jobs, Options{
		Workers: 8,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var starts, dones int
	seen := make(map[int]bool)
	for _, e := range events {
		switch e.Kind {
		case EventStart:
			starts++
		case EventDone:
			dones++
			if seen[e.JobIndex] {
				t.Errorf("job %d finished twice", e.JobIndex)
			}
			seen[e.JobIndex] = true
			if e.Total != n {
				t.Errorf("event total = %d, want %d", e.Total, n)
			}
		}
	}
	if starts != n || dones != n {
		t.Fatalf("got %d starts, %d dones, want %d each", starts, dones, n)
	}
	// The last Done event must report full completion.
	last := events[len(events)-1]
	if last.Kind != EventDone || last.Done != n {
		t.Errorf("last event = %+v, want Done count %d", last, n)
	}
}

func TestEmptyJobListIsANoop(t *testing.T) {
	res, stats, err := Run(context.Background(), nil, Options{})
	if err != nil || len(res) != 0 || stats.Jobs != 0 {
		t.Fatalf("res=%v stats=%+v err=%v, want empty success", res, stats, err)
	}
}

func TestRunRespectsPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	jobs := []Job{{Label: "never", Run: func(ctx context.Context) (engine.Result, error) {
		ran.Add(1)
		return engine.Result{}, nil
	}}}
	_, _, err := Run(ctx, jobs, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Error("job ran despite pre-cancelled context")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Jobs: 145, Ran: 140, CacheHits: 5, Workers: 8,
		SimInsts: 42_000_000, Wall: 2 * time.Second}
	str := s.String()
	for _, want := range []string{"145 jobs", "8 workers", "140 run", "5 cache hits", "42.0 Minst", "21.0 Minst/s"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String() = %q missing %q", str, want)
		}
	}
}
