// Package serve is the simulation-as-a-service layer: a long-running
// daemon (cmd/fxad) that accepts sweep/run jobs over HTTP, multiplexes
// them onto a persistent worker pool executing through the sweep
// engine's job path (sweep.RunOne: cache lookup, singleflight collapsing,
// panic containment), and streams each job's lifecycle — queued, started,
// interval metrics, result — as a replayable NDJSON event log.
//
// The fabric properties the daemon adds over the batch CLI:
//
//   - one shared content-addressed sweep.Cache across all tenants: a
//     cell simulated for one tenant is a free answer for every later
//     identical submission, and singleflight collapses concurrent
//     identical submissions into one simulation while it is in flight;
//   - a bounded priority queue with per-tenant weighted fairness (see
//     queue.go) and backpressure: a full queue answers 429 with a
//     Retry-After derived from the measured drain rate;
//   - resumable job IDs: the event log is the source of truth, so a
//     client can disconnect and re-attach to a running or completed job
//     and replay everything it missed;
//   - cancellation wired through the engine layer's context plumbing: an
//     HTTP DELETE aborts an in-flight simulation within a few thousand
//     simulated cycles, releases its pooled uops (leak-verified by
//     engine.Drive), and records a "cancelled" terminal event;
//   - graceful shutdown that drains in-flight jobs and fails queued ones
//     with an explicit error event.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fxa"
	"fxa/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrent simulations. <= 0 means GOMAXPROCS.
	Workers int

	// QueueCap bounds jobs waiting for a worker (running jobs are not
	// counted). A full queue rejects submissions with 429. <= 0 means
	// DefaultQueueCap.
	QueueCap int

	// Cache is the shared content-addressed result cache. nil disables
	// caching (every job simulates).
	Cache *sweep.Cache

	// TenantWeights sets per-tenant fairness weights; tenants not named
	// get weight 1. Weights must be positive.
	TenantWeights map[string]int

	// RetainJobs bounds completed job records kept for re-attach; the
	// oldest are evicted first. <= 0 means DefaultRetainJobs.
	RetainJobs int

	// Version is reported at /healthz (the fxad build version).
	Version string
}

// DefaultQueueCap bounds the pending-job queue when Config leaves it 0.
const DefaultQueueCap = 256

// DefaultRetainJobs bounds retained terminal job records when Config
// leaves it 0.
const DefaultRetainJobs = 1024

// Server is the serving fabric: job store, tenant queues, worker pool.
type Server struct {
	cfg   Config
	start time.Time

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signalled on submit and drain
	tenants  map[string]*tenantQueue
	jobs     map[string]*jobRec
	terminal []string // terminal job ids in completion order (retention)
	nextID   uint64
	queued   int // jobs in stateQueued
	running  int // jobs in stateRunning
	draining bool

	// Cumulative fabric counters (guarded by mu).
	submitted, completed, failed, cancelled uint64
	ran, cacheHits, collapsed               uint64

	// Drain-rate estimate for Retry-After: total wall time and count of
	// finished worker executions (guarded by mu).
	runNanos int64
	runCount int64

	wg sync.WaitGroup // worker goroutines
}

// New builds a Server and starts its worker pool. Callers must Shutdown
// (or Close) it to stop the workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		start:      time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		tenants:    make(map[string]*tenantQueue),
		jobs:       make(map[string]*jobRec),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// tenantLocked returns (creating if needed) the named tenant's queue.
func (s *Server) tenantLocked(name string) *tenantQueue {
	tq := s.tenants[name]
	if tq == nil {
		w := s.cfg.TenantWeights[name]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{name: name, weight: w}
		tq.stats.Weight = w
		s.tenants[name] = tq
	}
	return tq
}

// errQueueFull carries the backpressure signal (429 + Retry-After).
type errQueueFull struct{ retryAfter int }

func (e errQueueFull) Error() string {
	return fmt.Sprintf("serve: queue full, retry after %ds", e.retryAfter)
}

// errDraining rejects submissions during shutdown (503).
var errDraining = errors.New("serve: server is draining")

// Submit validates, resolves and enqueues one job, returning its record.
// A full queue returns errQueueFull; a draining server errDraining.
func (s *Server) Submit(spec JobSpec) (*jobRec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Tenant == "" {
		spec.Tenant = "anon"
	}
	m, err := fxa.ModelByName(spec.Model)
	if err != nil {
		return nil, err
	}
	w, err := fxa.WorkloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if s.queued >= s.cfg.QueueCap {
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		return nil, errQueueFull{retryAfter: ra}
	}
	s.nextID++
	id := fmt.Sprintf("j-%06d", s.nextID)
	jr := newJobRec(s.baseCtx, id, s.nextID, spec, m, w)
	s.queued++
	// Log "queued" before the job becomes visible to the pool, so no
	// worker can record "started" ahead of it. Lock order is always
	// Server.mu -> jobRec.evMu, never the reverse.
	jr.append(Event{Event: EventQueued, QueueDepth: s.queued})
	s.jobs[id] = jr
	tq := s.tenantLocked(spec.Tenant)
	tq.pending = append(tq.pending, jr)
	tq.stats.Submitted++
	s.submitted++
	s.cond.Signal()
	s.mu.Unlock()
	return jr, nil
}

// retryAfterLocked estimates how long (seconds, >= 1) until the queue has
// drained enough to accept new work, from the measured mean job wall
// time. With no history yet it guesses one second.
func (s *Server) retryAfterLocked() int {
	if s.runCount == 0 {
		return 1
	}
	mean := time.Duration(s.runNanos / s.runCount)
	eta := mean * time.Duration(s.queued) / time.Duration(s.cfg.Workers)
	sec := int(eta / time.Second)
	if sec < 1 {
		return 1
	}
	if sec > 600 {
		return 600
	}
	return sec
}

// Job returns the record for id, if it is still retained.
func (s *Server) Job(id string) (*jobRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jr, ok := s.jobs[id]
	return jr, ok
}

// Cancel requests cancellation of a job: a queued job terminates
// immediately with a "cancelled" event; a running job's context is
// cancelled, which aborts the in-flight simulation within a few thousand
// simulated cycles (engine.Drive) and then records the terminal event.
// Cancelling a terminal job is a no-op. The returned state is the job's
// state when the request took effect.
func (s *Server) Cancel(id string) (jobState, bool) {
	s.mu.Lock()
	jr, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	switch jr.state {
	case stateQueued:
		jr.state = stateCancelled
		jr.cancelRequested = true
		s.queued--
		s.cancelled++
		tq := s.tenantLocked(jr.tenant)
		tq.stats.Cancelled++
		s.retainLocked(jr)
		state := jr.state
		s.mu.Unlock()
		jr.cancel()
		jr.append(Event{Event: EventCancelled})
		return state, true
	case stateRunning:
		jr.cancelRequested = true
		state := jr.state
		s.mu.Unlock()
		jr.cancel() // the worker records the terminal event
		return state, true
	default: // already terminal
		state := jr.state
		s.mu.Unlock()
		return state, true
	}
}

// retainLocked appends a terminal job to the retention ring, evicting the
// oldest terminal records beyond the cap so re-attach keeps working for
// recent jobs without the store growing forever.
func (s *Server) retainLocked(jr *jobRec) {
	s.terminal = append(s.terminal, jr.id)
	for len(s.terminal) > s.cfg.RetainJobs {
		old := s.terminal[0]
		s.terminal = s.terminal[1:]
		delete(s.jobs, old)
	}
}

// worker is one pool goroutine: pick the fairest next job, run it through
// the sweep engine's job path, record the terminal event, repeat. Exits
// when the server drains and no queued work remains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		jr := s.next()
		if jr == nil {
			return
		}
		s.runJob(jr)
	}
}

// next blocks until a job is runnable (returning it marked running) or
// the server is draining with an empty queue (returning nil).
func (s *Server) next() *jobRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if tq := pickTenant(s.tenants); tq != nil {
			jr := tq.pick()
			tq.served++
			jr.state = stateRunning
			s.queued--
			s.running++
			return jr
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one job and records its terminal event.
func (s *Server) runJob(jr *jobRec) {
	jr.append(Event{Event: EventStarted})

	t0 := time.Now()
	var ev Event // the terminal event if the run succeeds
	var err error
	if jr.spec.Sample != nil {
		ev, err = runSample(jr)
	} else {
		ev, err = s.runCell(jr)
	}
	wall := time.Since(t0)

	s.mu.Lock()
	s.running--
	s.runNanos += int64(wall)
	s.runCount++
	tq := s.tenantLocked(jr.tenant)
	switch {
	case err == nil:
		jr.state = stateDone
		s.completed++
		tq.stats.Completed++
		switch {
		case ev.CacheHit:
			s.cacheHits++
			tq.stats.CacheHits++
		case ev.Collapsed:
			s.collapsed++
			tq.stats.Collapsed++
		default:
			s.ran++
			tq.stats.Ran++
		}
	case jr.cancelRequested && errors.Is(err, context.Canceled):
		jr.state = stateCancelled
		s.cancelled++
		tq.stats.Cancelled++
		// The error normally reads "context canceled"; anything beyond
		// that (a leak-check violation joined by engine.Drive) surfaces
		// here rather than disappearing with the cancelled run.
		ev = Event{Event: EventCancelled, Error: err.Error()}
	default:
		jr.state = stateFailed
		s.failed++
		tq.stats.Failed++
		ev = Event{Event: EventError, Error: err.Error()}
	}
	s.retainLocked(jr)
	s.mu.Unlock()

	jr.cancel() // release the context regardless of outcome
	jr.append(ev)
}

// runCell runs an evaluation-cell job through the shared result cache
// and returns its result event.
func (s *Server) runCell(jr *jobRec) (Event, error) {
	spec := &jr.spec
	job := fxa.EvaluationJob(jr.model, jr.workload, spec.Warmup, spec.MaxInsts)
	if spec.IntervalInsts > 0 {
		// Stream each interval as the engine cuts it, then drop the
		// series from the Result: the wire stream is its only consumer,
		// and interval collection is observation-only, so the streamed
		// run caches and reports the bytes a plain run would, under the
		// same fingerprint.
		job.Run = func(ctx context.Context) (fxa.Result, error) {
			res, err := fxa.Run(ctx, fxa.Spec{
				Model: jr.model, Workload: jr.workload, Warmup: spec.Warmup, MaxInsts: spec.MaxInsts,
				IntervalInsts: spec.IntervalInsts,
				OnInterval: func(iv fxa.Interval) {
					jr.append(Event{Event: EventInterval, Interval: &iv})
				},
			})
			res.Intervals = nil
			return res, err
		}
	}
	if spec.NoCache {
		job.Fingerprint = nil
	}
	res, hit, shared, err := sweep.RunOne(jr.ctx, job, s.cfg.Cache)
	return Event{Event: EventResult, Result: &res, CacheHit: hit, Collapsed: shared}, err
}

// runSample runs a sampled job (JobSpec.Sample, wire v2): the
// SMARTS-style schedule runs under the job's context and the "result"
// event carries the sampling Summary instead of a Result. Sampled jobs
// bypass the shared result cache (a Summary is not a cache entry) and
// run their detailed windows sequentially — the job already occupies one
// worker slot, and letting it fan out internally would let one tenant's
// sampled job oversubscribe the fabric's pool.
func runSample(jr *jobRec) (Event, error) {
	cfg := jr.spec.Sample.Config()
	cfg.Workers = 1
	sum, err := fxa.Sample(jr.ctx, jr.model, jr.workload, cfg)
	return Event{Event: EventResult, Summary: &sum}, err
}

// Shutdown drains the fabric: no new submissions are accepted, queued
// jobs terminate immediately with an error event, and in-flight jobs run
// to completion. If ctx expires first, the in-flight jobs are cancelled
// (their streams record cancelled/error events) and Shutdown returns
// ctx's error once the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Fail everything still queued, deterministically oldest-first.
		var dropped []*jobRec
		for _, tq := range s.tenants {
			for _, jr := range tq.pending {
				if jr.state != stateQueued {
					continue
				}
				jr.state = stateFailed
				s.queued--
				s.failed++
				tq.stats.Failed++
				s.retainLocked(jr)
				dropped = append(dropped, jr)
			}
			tq.pending = nil
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, jr := range dropped {
			jr.cancel()
			jr.append(Event{Event: EventError, Error: "serve: server shut down before the job ran"})
		}
	} else {
		s.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Out of patience: abort the in-flight simulations and wait for
		// the (now prompt) worker exits.
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close is Shutdown with immediate cancellation of in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Stats assembles the fabric-wide counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Queued:    s.queued,
		Running:   s.running,
		Workers:   s.cfg.Workers,
		QueueCap:  s.cfg.QueueCap,
		JobsHeld:  len(s.jobs),
		UptimeSec: int(time.Since(s.start) / time.Second),
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    s.failed,
		Cancelled: s.cancelled,
		Ran:       s.ran,
		CacheHits: s.cacheHits,
		Collapsed: s.collapsed,
		Tenants:   make(map[string]TenantStats, len(s.tenants)),
	}
	if s.cfg.Cache != nil {
		st.Cache = s.cfg.Cache.Stats()
		st.CacheHitRate = st.Cache.HitRate()
	}
	for name, tq := range s.tenants {
		ts := tq.stats
		ts.Queued = 0
		for _, jr := range tq.pending {
			if jr.state == stateQueued {
				ts.Queued++
			}
		}
		st.Tenants[name] = ts
	}
	return st
}

// Health assembles the liveness view.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	return Health{
		Status:  status,
		Version: s.cfg.Version,
		Go:      runtime.Version(),
		Queued:  s.queued,
		Running: s.running,
	}
}
