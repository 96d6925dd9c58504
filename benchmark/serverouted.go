package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"fxa"
	"fxa/internal/engine"
	"fxa/internal/serve"
	"fxa/internal/stats"
	"fxa/internal/sweep"
)

// fabric is an in-process sharded serving fabric on loopback listeners:
// a serve.Router in front of one single-worker serve.Server per shard
// name, each shard with its own sweep.Cache in a scratch directory and
// federated to its peers through serve.CacheFallback.
type fabric struct {
	dir       string
	transport *http.Transport
	caches    []*sweep.Cache
	shards    []*serve.Server
	router    *serve.Router
	https     []*http.Server // shards', then the router's
	routerURL string
}

// retainJobs is how many completed job records the shards and the router
// keep for re-attach. With fxad's 1024 a run would still be filling them
// when it ends, so the heap, and peak_rss_mb with it, would grow with the
// number of jobs the run completes, and a faster fabric would read as a
// bigger one. A client streams each job as soon as it has submitted it,
// so a few records would do.
const retainJobs = 32

// startFabric brings the fabric up. Shard traffic (router to shard,
// shard to peer) addresses shards by their ring names; the transport
// dials the matching listener.
func startFabric(parent string) (f *fabric, err error) {
	dir, err := os.MkdirTemp(parent, "fabric-")
	if err != nil {
		return nil, err
	}
	f = &fabric{dir: dir}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	var lns []net.Listener
	addrs := map[string]string{}
	for range shardNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		lns = append(lns, ln)
	}
	for i, n := range shardNames {
		addrs[strings.TrimPrefix(n, "http://")+":80"] = lns[i].Addr().String()
	}
	var d net.Dialer
	f.transport = &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}}
	httpc := &http.Client{Transport: f.transport}
	peers := func() []string { return shardNames }
	for i, n := range shardNames {
		c, err := sweep.OpenCache(filepath.Join(dir, fmt.Sprintf("cache-%d", i)))
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return f, err
		}
		c.SetFallback(serve.CacheFallback(n, peers, httpc, 0))
		s := serve.New(serve.Config{Workers: 1, Cache: c, RetainJobs: retainJobs})
		f.caches = append(f.caches, c)
		f.shards = append(f.shards, s)
		f.serveOn(lns[i], s.Handler())
	}
	f.router, err = serve.NewRouter(serve.RouterConfig{Shards: shardNames, HTTPClient: httpc, RetainJobs: retainJobs})
	if err != nil {
		return f, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.routerURL = "http://" + ln.Addr().String()
	f.serveOn(ln, f.router.Handler())
	return f, nil
}

func (f *fabric) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, hs)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: fabric listener:", err)
		}
	}()
}

// close stops the router, then the shards, then every listener, and
// removes the scratch caches.
func (f *fabric) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
	}
	for _, s := range f.shards {
		errs = append(errs, s.Shutdown(ctx))
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, hs := range f.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// shardTotals sums the shards' fabric and cache counters, plus the
// router's resubmissions.
type shardTotals struct {
	ran, hits, collapsed, failed, resubmitted uint64
	cache                                     sweep.CacheStats
}

func (f *fabric) totals() shardTotals {
	var t shardTotals
	for i, s := range f.shards {
		st := s.Stats()
		t.ran += st.Ran
		t.hits += st.CacheHits
		t.collapsed += st.Collapsed
		t.failed += st.Failed
		cs := f.caches[i].Stats()
		t.cache.Hits += cs.Hits
		t.cache.Misses += cs.Misses
		t.cache.Puts += cs.Puts
		t.cache.Collapsed += cs.Collapsed
		t.cache.Federated += cs.Federated
	}
	t.resubmitted = f.router.Stats().Resubmitted
	return t
}

func (a shardTotals) sub(b shardTotals) shardTotals {
	return shardTotals{a.ran - b.ran, a.hits - b.hits, a.collapsed - b.collapsed, a.failed - b.failed,
		a.resubmitted - b.resubmitted,
		sweep.CacheStats{Hits: a.cache.Hits - b.cache.Hits, Misses: a.cache.Misses - b.cache.Misses,
			Puts: a.cache.Puts - b.cache.Puts, Collapsed: a.cache.Collapsed - b.cache.Collapsed,
			Federated: a.cache.Federated - b.cache.Federated}}
}

// serveRec is one job as a client saw it. Times are offsets from t0.
type serveRec struct {
	op                    serveOp
	submit, submitted     time.Duration // Submit call start and return
	started, terminal     time.Duration // "started" and terminal event arrival
	lag                   time.Duration // previous terminal to this Submit (the client's own gap)
	events, intervals     int
	queued, startedEvents int
	sum                   stats.Counters // interval counters, summed
	res                   *engine.Result
	cacheHit, collapsed   bool
	err                   error
}

// clientLoop is one closed-loop client: submit, stream to the terminal
// event, repeat. It stops after limit ops when limit >= 0, else at the
// first op that would start after deadline.
func clientLoop(ctx context.Context, c *serve.Client, next func() (serveOp, error), t0, deadline time.Time,
	limit int, t *tracer, opID func(int) int) ([]serveRec, error) {
	var recs []serveRec
	var lastEnd time.Duration
	for n := 0; ; n++ {
		if (limit >= 0 && n >= limit) || (limit < 0 && time.Now().After(deadline)) {
			return recs, nil
		}
		op, err := next()
		if err != nil {
			return recs, err
		}
		r := serveRec{op: op}
		id := opID(n)
		root := t.begin("op", -1, id)
		r.submit = time.Since(t0)
		if n > 0 {
			r.lag = r.submit - lastEnd
		}
		s := t.begin("Client.Submit", root.id(), id)
		jobID, err := c.Submit(ctx, op.spec(c.Tenant))
		t.end(s)
		r.submitted = time.Since(t0)
		if err == nil {
			s = t.begin("Client.Stream", root.id(), id)
			err = c.Stream(ctx, jobID, func(e serve.Event) error {
				r.events++
				switch e.Event {
				case serve.EventQueued:
					r.queued++
				case serve.EventStarted:
					r.startedEvents++
					r.started = time.Since(t0)
				case serve.EventInterval:
					r.intervals++
					if e.Interval != nil {
						r.sum.Add(&e.Interval.Counters)
					}
				case serve.EventResult:
					r.res, r.cacheHit, r.collapsed = e.Result, e.CacheHit, e.Collapsed
				default:
					return fmt.Errorf("job %s ended %s: %s", jobID, e.Event, e.Error)
				}
				return nil
			})
			t.end(s)
		}
		r.terminal = time.Since(t0)
		lastEnd = r.terminal
		t.end(root)
		r.err = err
		recs = append(recs, r)
	}
}

// check verifies one job against the reference and the seed's outcome.
func (r *serveRec) check(ref *reference) error {
	c := r.op.Cell
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", c.key(), r.err)
	case r.res == nil:
		return fmt.Errorf("%s: no result", c.key())
	case r.queued != 1 || r.startedEvents != 1:
		return fmt.Errorf("%s: %d queued and %d started events, want 1 each", c.key(), r.queued, r.startedEvents)
	case r.collapsed:
		return fmt.Errorf("%s: collapsed onto a concurrent run", c.key())
	case r.op.Fresh == r.cacheHit:
		return fmt.Errorf("%s: fresh=%v but cache_hit=%v", c.key(), r.op.Fresh, r.cacheHit)
	case r.op.Stream && r.intervals == 0:
		return fmt.Errorf("%s: streaming job sent no interval events", c.key())
	case !r.op.Stream && r.intervals != 0:
		return fmt.Errorf("%s: %d interval events on a non-streaming job", c.key(), r.intervals)
	case r.op.Stream && r.sum != r.res.Counters:
		return fmt.Errorf("%s: interval counters do not sum to the result's", c.key())
	}
	return ref.checkCell(c, digest(r.res))
}

// serveLayerMetrics sets the serve.* metrics from the jobs of a traced
// replay or a probe.
func serveLayerMetrics(o *outcome, recs []serveRec) {
	var sub, queue, runT, hit []float64
	events := 0
	for _, r := range recs {
		sub = append(sub, ms(r.submitted-r.submit))
		events += r.events
		if r.op.Fresh {
			queue = append(queue, ms(r.started-r.submitted))
			runT = append(runT, ms(r.terminal-r.started))
		} else {
			hit = append(hit, ms(r.terminal-r.submit))
		}
	}
	o.set("serve.submit_ms_p50", median(sub), "ms")
	o.set("serve.queue_ms_p50", median(queue), "ms")
	o.set("serve.run_ms_p50", median(runT), "ms")
	o.set("serve.hit_ms_p50", median(hit), "ms")
	o.set("serve.events_per_job", float64(events)/float64(len(recs)), "count")
}

// ==== serve-routed ====

// runServeRouted drives a router over two single-worker shards with two
// closed-loop clients, one tenant each, for the run length.
func runServeRouted(o *opts) (*outcome, error) {
	ctx := context.Background()
	gcc, _ := fxa.WorkloadByName("gcc")
	warm := cell{fxa.HalfFX(), gcc, evalInsts} // outside the fresh pool
	var pools [][]cell
	var ref *reference
	var f *fabric
	up := func() error {
		var err error
		if f, err = startFabric(o.out); err != nil {
			return err
		}
		if err = warmFabric(ctx, f, warm, ref); err != nil {
			f.close()
			f = nil
		}
		return err
	}
	setup, err := repeatSetup(func() error {
		var err error
		pools = servePools(o.seed)
		if ref, err = loadReference(); err != nil {
			return err
		}
		runtime.GC()
		return up()
	}, func() error { return f.close() })
	if err != nil {
		if f != nil {
			f.close()
		}
		return nil, fmt.Errorf("setup: %w", err)
	}

	out := &outcome{}
	w := startWindow()
	recs, tot, short, err := driveClients(ctx, f, o, pools, nil, nil)
	var insts uint64
	n := 0
	for c := range recs {
		for _, r := range recs[c] {
			n++
			if r.op.Fresh && r.res != nil {
				insts += r.res.Counters.Committed
			}
		}
	}
	w.mark(insts, n)
	w.stop()
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, err := range short {
		out.attempted++
		out.fail(err)
	}
	var lat, lags []float64
	for c := range recs {
		for i := range recs[c] {
			r := &recs[c][i]
			out.attempted++
			if err := r.check(ref); err != nil {
				out.fail(err)
				continue
			}
			if r.op.Fresh {
				lat = append(lat, ms(r.terminal-r.submit))
			}
			if i > 0 {
				lags = append(lags, float64(r.lag)/1e3)
			}
		}
	}
	checkTotals(out, recs, tot)
	out.endToEnd(setup, w, lat)
	out.note("shards: ran %d, cache hits %d, collapsed %d, federated %d, cache puts %d",
		tot.ran, tot.hits, tot.collapsed, tot.cache.Federated, tot.cache.Puts)
	if !o.trace {
		return out, nil
	}

	// Traced replay: a fresh fabric, the same per-client op counts.
	if err := up(); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tr := &traced{t: newTracer(), untraced: w.wall, callers: len(recs), lagsUS: lags, cache: tot}
	limits := make([]int, len(recs))
	for c := range recs {
		limits[c] = len(recs[c])
	}
	t0 := time.Now()
	rrecs, rtot, _, err := driveClients(ctx, f, o, pools, limits, tr.t)
	tr.wall = time.Since(t0)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var fresh []cell
	for c := range rrecs {
		for i := range rrecs[c] {
			r := &rrecs[c][i]
			out.attempted++
			if err := r.check(ref); err != nil {
				out.fail(fmt.Errorf("traced: %w", err))
				continue
			}
			tr.serveRecs = append(tr.serveRecs, *r)
			if r.op.Fresh {
				tr.sim.add(r.res)
				fresh = append(fresh, r.op.Cell)
			}
		}
	}
	checkTotals(out, rrecs, rtot)
	if len(fresh) == 0 {
		return nil, fmt.Errorf("no fresh job completed in the traced replay")
	}
	tr.probeCells = probeCells(fresh)
	return out, finishTrace(o, out, tr, ref)
}

// warmFabric is the untimed warm-up op: one job through the router.
func warmFabric(ctx context.Context, f *fabric, c cell, ref *reference) error {
	cl := &serve.Client{BaseURL: f.routerURL, Tenant: "warm-up", HTTPClient: &http.Client{Transport: &http.Transport{}}}
	defer cl.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
	recs, err := clientLoop(ctx, cl, func() (serveOp, error) { return serveOp{Cell: c, Fresh: true}, nil },
		time.Now(), time.Time{}, 1, nil, func(int) int { return 0 })
	if err != nil {
		return err
	}
	return recs[0].check(ref)
}

// driveClients runs one closed-loop client per pool against the router,
// each with its own connection and tenant, until the run length (limits
// nil) or for limits[c] ops. It returns each client's jobs, the shard
// counters the jobs moved, and an errPoolExhausted for each client that
// ran out of fresh cells.
func driveClients(ctx context.Context, f *fabric, o *opts, pools [][]cell, limits []int, t *tracer) ([][]serveRec, shardTotals, []error, error) {
	base := f.totals()
	t0 := time.Now()
	deadline := t0.Add(o.budget())
	recs := make([][]serveRec, len(pools))
	errs := make([]error, len(pools))
	var wg sync.WaitGroup
	for c := range pools {
		c := c
		limit := -1
		if limits != nil {
			limit = limits[c]
		}
		gen := newClientGen(o.seed, c, pools[c])
		tp := &http.Transport{}
		cl := &serve.Client{BaseURL: f.routerURL, Tenant: fmt.Sprintf("tenant-%d", c), HTTPClient: &http.Client{Transport: tp}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tp.CloseIdleConnections()
			recs[c], errs[c] = clientLoop(ctx, cl, gen.next, t0, deadline, limit, t,
				func(n int) int { return n*len(pools) + c })
		}()
	}
	wg.Wait()
	var short []error
	for _, err := range errs {
		switch {
		case errors.Is(err, errPoolExhausted):
			short = append(short, err)
		case err != nil:
			return nil, shardTotals{}, nil, err
		}
	}
	return recs, f.totals().sub(base), short, nil
}

// checkTotals compares the fabric's counters with the outcomes the seed's
// op mix implies: every fresh job ran, every repeat was a cache hit, and
// nothing collapsed, federated, failed or was resubmitted.
func checkTotals(out *outcome, recs [][]serveRec, tot shardTotals) {
	var fresh, repeats uint64
	for _, rs := range recs {
		for _, r := range rs {
			if r.op.Fresh {
				fresh++
			} else {
				repeats++
			}
		}
	}
	if tot.ran != fresh || tot.hits != repeats || tot.collapsed != 0 || tot.failed != 0 ||
		tot.cache.Federated != 0 || tot.cache.Collapsed != 0 || tot.resubmitted != 0 {
		out.attempted++
		out.fail(fmt.Errorf("fabric counters ran %d hits %d collapsed %d failed %d federated %d resubmitted %d; the op mix implies ran %d hits %d and no others",
			tot.ran, tot.hits, tot.collapsed, tot.failed, tot.cache.Federated, tot.resubmitted, fresh, repeats))
	}
}

// probeServe runs the workload's probe cells through a fabric with one
// client — each cell fresh (every other one streaming), then each again
// as a cache hit — so a batch workload reports the serve layer too.
func probeServe(o *opts, t *tracer, cells []cell) ([]serveRec, error) {
	f, err := startFabric(o.out)
	if err != nil {
		return nil, err
	}
	defer f.close()
	var ops []serveOp
	for i, c := range cells {
		ops = append(ops, serveOp{Cell: c, Fresh: true, Stream: i%2 == 1})
	}
	for _, c := range cells {
		ops = append(ops, serveOp{Cell: c})
	}
	k := 0
	next := func() (serveOp, error) { k++; return ops[k-1], nil }
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	cl := &serve.Client{BaseURL: f.routerURL, Tenant: "probe", HTTPClient: &http.Client{Transport: tp}}
	return clientLoop(context.Background(), cl, next, time.Now(), time.Time{}, len(ops), t,
		func(n int) int { return -1000 - n })
}
