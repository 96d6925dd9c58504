// Package sweep is the simulation-orchestration engine: it takes a batch
// of independent simulation jobs (one (model, workload, maxInsts) cell of
// an evaluation matrix, one design-space point of a figure sweep, one
// sampling window, ...), executes them on a bounded worker pool, and
// assembles the results deterministically in job order regardless of
// completion order.
//
// Every simulation in this repository is self-contained — it builds its
// own emulator, caches and predictors and shares no mutable state — so
// the paper's 29-workload × 5-model matrix (Section VI) and the
// design-space sweeps of Figures 11-13 are embarrassingly parallel. The
// engine exploits that while keeping the strong property the figure code
// relies on: the result slice is indexed exactly like the job slice, so a
// parallel run is bit-identical to a serial one.
//
// The engine also provides:
//
//   - a content-addressed on-disk result cache (see Cache) keyed by a
//     hash of the job fingerprint and the simulator version, so repeated
//     fxabench invocations skip unchanged runs;
//   - robustness: per-job panic recovery converted into job errors,
//     context cancellation that drains the pool cleanly, and a choice of
//     fail-fast versus collect-all error modes;
//   - observability: a Stats counter set and a serialized progress-event
//     stream (OnEvent is always invoked from a single goroutine, so
//     callers may write "\r"-style terminal updates without locking).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fxa/internal/engine"
)

// Job is one unit of work: a self-contained simulation run.
type Job struct {
	// Label identifies the job in progress events and error messages
	// (e.g. "libquantum/HALF+FX").
	Label string

	// Fingerprint is the job's identity for the result cache: a
	// JSON-serializable value (typically a struct of the model
	// configuration, the workload parameters and maxInsts) that fully
	// determines the simulation outcome. A nil Fingerprint marks the
	// job uncacheable; it always runs.
	Fingerprint any

	// Run executes the simulation. It must be self-contained (no
	// shared mutable state with other jobs) and should return early
	// when ctx is cancelled if it is long-running.
	Run func(ctx context.Context) (engine.Result, error)
}

// ErrorMode selects how the engine reacts to job errors.
type ErrorMode int

const (
	// FailFast stops dispatching new jobs on the first error, lets the
	// jobs already in flight finish, and returns the error of the
	// lowest-indexed failed job. Dispatch is in index order, so every
	// job below the failing one has already run to completion and the
	// reported error is deterministic regardless of completion order.
	// (Cancelling in-flight work instead would let scheduling decide
	// whether a lower-indexed job records its real error or a skip.)
	// This is the zero value.
	FailFast ErrorMode = iota
	// CollectAll runs every job and returns all errors joined.
	CollectAll
)

// EventKind distinguishes progress events.
type EventKind int

const (
	// EventStart is emitted when a job is picked up by a worker.
	EventStart EventKind = iota
	// EventDone is emitted when a job finishes (run, cached, or failed).
	EventDone
)

// Event is one serialized progress notification. Events are delivered to
// Options.OnEvent from a single dedicated goroutine, in the order the
// pool produced them.
type Event struct {
	Kind     EventKind
	JobIndex int    // index into the job slice
	Label    string // Job.Label
	Done     int    // EventDone events delivered so far (including this one)
	Total    int    // total number of jobs
	CacheHit bool   // EventDone: result came from the cache
	Err      error  // EventDone: the job's error, if any
}

// Options configures one engine run.
type Options struct {
	// Workers bounds the worker pool. <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, if non-nil, is consulted before running a job with a
	// non-nil Fingerprint and updated after a successful run.
	Cache *Cache
	// Errors selects fail-fast (default) or collect-all error handling.
	Errors ErrorMode
	// OnEvent, if non-nil, receives serialized progress events from a
	// single goroutine. It must not block indefinitely: the pool's
	// event queue applies backpressure.
	OnEvent func(Event)
}

// Run executes jobs on a bounded worker pool and returns their results in
// job order. The returned Stats describe the run; on error the result
// slice still holds every successfully completed job (failed or skipped
// slots are zero Results).
//
// Cancellation of ctx drains the pool cleanly: no new jobs are dispatched,
// in-flight jobs see the cancelled context, and Run returns ctx's error
// (joined with any job errors already observed in CollectAll mode).
func Run(ctx context.Context, jobs []Job, opts Options) ([]engine.Result, Stats, error) {
	start := time.Now()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	stats := Stats{Jobs: len(jobs)}
	if len(jobs) == 0 {
		stats.Wall = time.Since(start)
		return nil, stats, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	stats.Workers = workers

	results := make([]engine.Result, len(jobs))
	errs := make([]error, len(jobs))
	hits := make([]bool, len(jobs))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Single-writer event dispatcher: workers post to the channel, one
	// goroutine invokes the callback, so OnEvent needs no locking.
	events := make(chan Event, 2*workers)
	var eventWG sync.WaitGroup
	eventWG.Add(1)
	go func() {
		defer eventWG.Done()
		done := 0
		for e := range events {
			// Counted here, in delivery order, not by the workers: a
			// worker can be descheduled between finishing a job and
			// posting its event, and Done must never go backwards.
			if e.Kind == EventDone {
				done++
			}
			e.Done = done
			if opts.OnEvent != nil {
				opts.OnEvent(e)
			}
		}
	}()

	// Dispatcher: feeds job indices in order until done, cancelled, or
	// stopped by a fail-fast error.
	feed := make(chan int)
	stopFeed := make(chan struct{})
	var stopOnce sync.Once
	go func() {
		defer close(feed)
		for i := range jobs {
			select {
			case feed <- i:
			case <-runCtx.Done():
				return
			case <-stopFeed:
				return
			}
		}
	}()

	var ran, cacheHits, cacheMisses, collapsed, simInsts, simCycles atomic.Uint64
	var detailedNanos atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				job := &jobs[i]
				events <- Event{Kind: EventStart, JobIndex: i, Label: job.Label, Total: len(jobs)}
				t0 := time.Now()
				res, hit, shared, err := runOne(runCtx, job, opts.Cache)
				elapsed := time.Since(t0)
				if err == nil {
					switch {
					case hit:
						cacheHits.Add(1)
					case shared:
						collapsed.Add(1)
					default:
						cacheMisses.Add(1)
						ran.Add(1)
						simInsts.Add(res.Counters.Committed)
						simCycles.Add(res.Counters.Cycles)
						// Only the leader's time is detailed simulation;
						// followers and cache hits just waited or read.
						detailedNanos.Add(int64(elapsed))
					}
				}
				results[i], hits[i], errs[i] = res, hit || shared, err
				events <- Event{Kind: EventDone, JobIndex: i, Label: job.Label,
					Total: len(jobs), CacheHit: hit || shared, Err: err}
				if err != nil && opts.Errors == FailFast {
					stopOnce.Do(func() { close(stopFeed) })
				}
			}
		}()
	}
	wg.Wait()
	close(events)
	eventWG.Wait()

	stats.Ran = int(ran.Load())
	stats.CacheHits = int(cacheHits.Load())
	stats.CacheMisses = int(cacheMisses.Load())
	stats.Collapsed = int(collapsed.Load())
	stats.SimInsts = simInsts.Load()
	stats.SimCycles = simCycles.Load()
	stats.DetailedTime = time.Duration(detailedNanos.Load())
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	stats.Allocs = memAfter.Mallocs - memBefore.Mallocs
	stats.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	stats.Wall = time.Since(start)
	for _, e := range errs {
		if e != nil {
			stats.Errors++
		}
	}

	// Deterministic error resolution: independent of completion order.
	if err := resolveErrors(ctx, errs, opts.Errors); err != nil {
		return results, stats, err
	}
	return results, stats, nil
}

// RunOne executes a single job through the engine's full execution path —
// panic containment, cache lookup, and singleflight collapsing of
// concurrent identical keys — without a surrounding pool. It is the unit
// the serving layer (internal/serve) multiplexes its persistent worker
// pool onto: every daemon job goes through the same path a sweep job
// does, so cache identity and error semantics cannot drift between the
// CLI and the daemon. hit reports a disk-cache answer; shared reports a
// result taken from a concurrent leader's in-flight run (counted in
// CacheStats.Collapsed).
func RunOne(ctx context.Context, job Job, cache *Cache) (res engine.Result, hit, shared bool, err error) {
	return runOne(ctx, &job, cache)
}

// runOne executes a single job with cache lookup, singleflight collapsing
// and panic containment.
func runOne(ctx context.Context, job *Job, cache *Cache) (res engine.Result, hit, shared bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, hit, shared = engine.Result{}, false, false
			err = fmt.Errorf("sweep: job %q panicked: %v\n%s", job.Label, r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return engine.Result{}, false, false, err
	}
	if cache == nil || job.Fingerprint == nil {
		res, err = job.Run(ctx)
		if err != nil {
			return engine.Result{}, false, false, err
		}
		return res, false, false, nil
	}
	key, err := Key(job.Fingerprint)
	if err != nil {
		return engine.Result{}, false, false, fmt.Errorf("sweep: job %q fingerprint: %w", job.Label, err)
	}
	return cache.runShared(ctx, key, func() (r engine.Result, rerr error) {
		// Contain panics here (not only in runShared's generic backstop)
		// so the error followers observe names the job that blew up.
		defer func() {
			if p := recover(); p != nil {
				r, rerr = engine.Result{}, fmt.Errorf("sweep: job %q panicked: %v\n%s", job.Label, p, debug.Stack())
			}
		}()
		r, rerr = job.Run(ctx)
		if rerr != nil {
			return engine.Result{}, rerr
		}
		if perr := cache.Put(key, r); perr != nil {
			// A cache write failure degrades performance, not
			// correctness; surface it as a job error only if the
			// caller asked for strict caching.
			return r, fmt.Errorf("sweep: job %q cache write: %w", job.Label, perr)
		}
		return r, nil
	})
}

// resolveErrors turns the per-job error slice into the engine's return
// error, deterministically.
func resolveErrors(parent context.Context, errs []error, mode ErrorMode) error {
	var jobErrs []error
	for i, e := range errs {
		if e == nil || errors.Is(e, context.Canceled) {
			continue
		}
		if mode == FailFast {
			return fmt.Errorf("sweep: job %d: %w", i, e)
		}
		jobErrs = append(jobErrs, fmt.Errorf("sweep: job %d: %w", i, e))
	}
	if perr := parent.Err(); perr != nil {
		jobErrs = append(jobErrs, perr)
	}
	if len(jobErrs) == 0 {
		// Fail-fast cancellation may have left only context.Canceled
		// job errors behind; report the cancellation itself then.
		for i, e := range errs {
			if e != nil {
				return fmt.Errorf("sweep: job %d: %w", i, e)
			}
		}
		return nil
	}
	return errors.Join(jobErrs...)
}
