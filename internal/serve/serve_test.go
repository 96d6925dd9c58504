package serve

// Job-lifecycle coverage of the serving fabric over real HTTP (httptest)
// and real simulations: submit -> stream -> result, cancellation of
// queued and in-flight jobs, re-attach replay, backpressure, graceful
// shutdown, weighted fairness, and cross-tenant cache sharing. The
// simulated jobs are real evaluation cells — small ones where only the
// protocol matters, effectively-endless ones where the test must prove
// cancellation reaches into the running engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fxa"
	"fxa/internal/sweep"
)

// quickSpec is a cell small enough to simulate in milliseconds.
func quickSpec(tenant string) JobSpec {
	return JobSpec{
		Tenant:   tenant,
		Model:    "HALF+FX",
		Workload: "libquantum",
		MaxInsts: 6_000,
	}
}

// endlessSpec is a cell that would simulate for many minutes — any test
// that sees it finish has proven cancellation, not patience.
func endlessSpec(tenant string) JobSpec {
	return JobSpec{
		Tenant:   tenant,
		Model:    "HALF+FX",
		Workload: "libquantum",
		MaxInsts: 2_000_000_000,
	}
}

// newFabric stands up a Server plus its HTTP front end.
func newFabric(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return srv, ts, &Client{BaseURL: ts.URL}
}

// streamEvents attaches to a job and forwards its events; the channel
// closes when the stream ends (terminal event or error).
func streamEvents(c *Client, id string) <-chan Event {
	ch := make(chan Event, 256)
	go func() {
		defer close(ch)
		_ = c.Stream(context.Background(), id, func(e Event) error {
			ch <- e
			return nil
		})
	}()
	return ch
}

// waitEvent reads events until one of the wanted kind arrives.
func waitEvent(t *testing.T, ch <-chan Event, kind string) Event {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed while waiting for %q", kind)
			}
			if e.Event == kind {
				return e
			}
			if e.Terminal() {
				t.Fatalf("terminal %q event (error %q) while waiting for %q", e.Event, e.Error, kind)
			}
		case <-deadline:
			t.Fatalf("no %q event within 60s", kind)
		}
	}
}

// rawPost submits a spec without the Client's 429-retry loop, returning
// the status code and decoded error body (zero for 2xx).
func rawPost(t *testing.T, url string, spec JobSpec) (int, ErrorReply, SubmitReply) {
	t.Helper()
	body, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorReply
	var sr SubmitReply
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, er, sr
}

func TestJobLifecycleStream(t *testing.T) {
	_, _, client := newFabric(t, Config{Workers: 2})

	// Large enough to span several engine step slices, so the live stream
	// carries a real interval series, not just the tail cut.
	spec := quickSpec("alice")
	spec.MaxInsts = 60_000
	spec.IntervalInsts = 8_192
	id, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	if err := client.Stream(context.Background(), id, func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Shape: queued, started, >= 1 interval, result — with contiguous Seq.
	if len(events) < 4 {
		t.Fatalf("got %d events, want at least queued/started/interval/result", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d (log not contiguous)", i, e.Seq)
		}
		if e.Job != id {
			t.Errorf("event %d names job %q, want %q", i, e.Job, id)
		}
	}
	if events[0].Event != EventQueued {
		t.Errorf("first event %q, want queued", events[0].Event)
	}
	if events[1].Event != EventStarted {
		t.Errorf("second event %q, want started", events[1].Event)
	}
	last := events[len(events)-1]
	if last.Event != EventResult || last.Result == nil {
		t.Fatalf("last event %q (result=%v), want a result", last.Event, last.Result != nil)
	}
	intervals := 0
	for _, e := range events[2 : len(events)-1] {
		if e.Event != EventInterval || e.Interval == nil {
			t.Fatalf("mid-stream event %q (interval=%v), want interval", e.Event, e.Interval != nil)
		}
		intervals++
	}
	if intervals < 2 {
		t.Errorf("%d interval events for a %d-inst run at every %d, want >= 2",
			intervals, spec.MaxInsts, spec.IntervalInsts)
	}
	if len(last.Result.Intervals) != 0 {
		t.Errorf("final result embeds %d intervals; the series is stream-only", len(last.Result.Intervals))
	}

	// The remote result must be bit-identical to running the same cell
	// locally through the same job constructor.
	m, err := fxa.ModelByName(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fxa.WorkloadByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fxa.EvaluationJob(m, w, spec.Warmup, spec.MaxInsts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*last.Result, local) {
		t.Error("remote result differs from the local run of the same cell")
	}
}

func TestCancelMidFlightIsPromptAndLeakFree(t *testing.T) {
	srv, _, client := newFabric(t, Config{Workers: 1})

	id, err := client.Submit(context.Background(), endlessSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}
	ch := streamEvents(client, id)
	waitEvent(t, ch, EventStarted)

	rep, err := client.Cancel(context.Background(), id)
	cancelled := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "cancelling" {
		t.Errorf("cancel status %q, want cancelling (the job was running)", rep.Status)
	}

	term := waitEvent(t, ch, EventCancelled)
	// The engine checks the context every few thousand cycles, so the
	// abort lands in microseconds of simulated work; the bound is
	// generous for race-detector CI, but far below the minutes the run
	// would need to finish.
	if d := time.Since(cancelled); d > 5*time.Second {
		t.Errorf("cancelled event arrived %v after DELETE, want prompt", d)
	}
	if !strings.Contains(term.Error, "context canceled") {
		t.Errorf("cancelled event error %q, want the context error", term.Error)
	}
	// engine.Drive runs the core's uop-pool leak check after every abort
	// and joins violations onto the error; a clean cancel carries none.
	if strings.Contains(term.Error, "leak") {
		t.Errorf("cancelled run leaked pooled uops: %s", term.Error)
	}

	st := srv.Stats()
	if st.Cancelled != 1 || st.Running != 0 {
		t.Errorf("stats after cancel: %+v, want 1 cancelled, 0 running", st)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, _, client := newFabric(t, Config{Workers: 1})

	// Pin the only worker so the second job stays queued.
	seed, err := client.Submit(context.Background(), endlessSpec("seed"))
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, streamEvents(client, seed), EventStarted)

	id, err := client.Submit(context.Background(), quickSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := client.Cancel(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "cancelled" {
		t.Errorf("cancel status %q, want cancelled (the job never started)", rep.Status)
	}

	var events []Event
	if err := client.Stream(context.Background(), id, func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Event != EventQueued || events[1].Event != EventCancelled {
		t.Fatalf("queued-cancel log = %+v, want exactly [queued cancelled]", events)
	}

	if _, err := client.Cancel(context.Background(), seed); err != nil {
		t.Fatal(err)
	}
}

func TestReattachReplaysFullLog(t *testing.T) {
	_, _, client := newFabric(t, Config{Workers: 1})

	spec := quickSpec("alice")
	spec.MaxInsts = 400_000 // long enough to catch it mid-flight
	spec.IntervalInsts = 4_096
	id, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// First attachment: read until the first interval, then drop the
	// connection mid-stream.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var before []Event
	errStop := context.Canceled
	err = client.Stream(ctx1, id, func(e Event) error {
		before = append(before, e)
		if e.Event == EventInterval {
			cancel1()
			return errStop
		}
		return nil
	})
	cancel1()
	if err == nil {
		t.Fatal("first stream ended normally; wanted to abandon it mid-flight")
	}
	if len(before) < 3 {
		t.Fatalf("read %d events before disconnecting, want queued/started/interval", len(before))
	}

	// The disconnect must not have disturbed the job: re-attach, replay
	// everything from seq 0, and follow it to the result.
	var after []Event
	if err := client.Stream(context.Background(), id, func(e Event) error {
		after = append(after, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("replay has %d events, want more than the %d read before disconnect", len(after), len(before))
	}
	for i, e := range before {
		if after[i].Seq != e.Seq || after[i].Event != e.Event {
			t.Fatalf("replay diverges at %d: %q/%d vs %q/%d", i, after[i].Event, after[i].Seq, e.Event, e.Seq)
		}
	}
	if last := after[len(after)-1]; last.Event != EventResult {
		t.Fatalf("replayed stream ends in %q, want result", last.Event)
	}

	// A third attachment after completion replays the identical log.
	var again []Event
	if err := client.Stream(context.Background(), id, func(e Event) error {
		again = append(again, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, again) {
		t.Error("post-completion replay differs from the live stream")
	}
}

func TestBackpressureRejectsWithRetryAfter(t *testing.T) {
	_, ts, client := newFabric(t, Config{Workers: 1, QueueCap: 1})

	running, err := client.Submit(context.Background(), endlessSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, streamEvents(client, running), EventStarted)
	queued, err := client.Submit(context.Background(), endlessSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}

	// Worker pinned, queue full: the next submission must bounce.
	code, er, _ := rawPost(t, ts.URL, endlessSpec("alice"))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit returned %d, want 429", code)
	}
	if er.RetryAfter < 1 {
		t.Errorf("429 body retry_after = %d, want >= 1", er.RetryAfter)
	}
	if !strings.Contains(er.Error, "queue full") {
		t.Errorf("429 error %q, want a queue-full message", er.Error)
	}

	for _, id := range []string{running, queued} {
		if _, err := client.Cancel(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	// The in-flight job must still be running when the drain begins
	// (seconds of simulated work; the drain setup below takes
	// milliseconds), yet finish well within the shutdown timeout.
	inflight, err := client.Submit(context.Background(), JobSpec{
		Tenant: "alice", Model: "HALF+FX", Workload: "libquantum", MaxInsts: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	inflightCh := streamEvents(client, inflight)
	waitEvent(t, inflightCh, EventStarted)
	queued, err := client.Submit(context.Background(), quickSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Submissions during the drain are refused with 503.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h, err := client.Healthz(context.Background()); err == nil && h.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	code, er, _ := rawPost(t, ts.URL, quickSpec("bob"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain returned %d, want 503", code)
	}
	if !strings.Contains(er.Error, "draining") {
		t.Errorf("503 error %q, want a draining message", er.Error)
	}

	// The queued job fails with an explicit event; the in-flight one runs
	// to a real result.
	qterm := waitEvent(t, streamEvents(client, queued), EventError)
	if !strings.Contains(qterm.Error, "shut down") {
		t.Errorf("drained-job error %q, want a shutdown message", qterm.Error)
	}
	term := waitEvent(t, inflightCh, EventResult)
	if term.Result == nil {
		t.Fatal("in-flight job drained without a result")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
}

func TestCloseAbortsInFlight(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	id, err := client.Submit(context.Background(), endlessSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}
	ch := streamEvents(client, id)
	waitEvent(t, ch, EventStarted)

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close took %v; the abort should reach the engine promptly", d)
	}
	term := waitEvent(t, ch, EventError)
	if !strings.Contains(term.Error, "context canceled") {
		t.Errorf("aborted job error %q, want the context error", term.Error)
	}
}

func TestWeightedFairnessAndPriority(t *testing.T) {
	srv, _, client := newFabric(t, Config{
		Workers:       1,
		TenantWeights: map[string]int{"a": 2, "b": 1},
	})

	// Pin the worker so every job below queues before any dispatch.
	seed, err := client.Submit(context.Background(), endlessSpec("z-seed"))
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, streamEvents(client, seed), EventStarted)

	submit := func(tenant string, prio int) string {
		t.Helper()
		spec := quickSpec(tenant)
		spec.Priority = prio
		id, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	label := make(map[string]string)
	for i, name := range []string{"a1", "a2", "a3", "a4"} {
		_ = i
		label[submit("a", 0)] = name
	}
	for _, name := range []string{"b1", "b2", "b3", "b4"} {
		label[submit("b", 0)] = name
	}
	label[submit("a", 5)] = "a5" // submitted last, but highest priority in a

	// Release the worker; the nine jobs now run one at a time in
	// scheduler order, and the retention list records completion order.
	if _, err := client.Cancel(context.Background(), seed); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for srv.Stats().Completed != 9 {
		if time.Now().After(deadline) {
			t.Fatalf("fabric never drained: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	srv.mu.Lock()
	order := append([]string(nil), srv.terminal...)
	srv.mu.Unlock()
	var got []string
	for _, id := range order {
		if name, ok := label[id]; ok { // skip the seed job
			got = append(got, name)
		}
	}
	// Weighted round-robin at weight 2:1 gives tenant a two slots per b
	// slot (ties break to "a"); within a, priority 5 preempts the queue.
	want := []string{"a5", "b1", "a1", "a2", "b2", "a3", "a4", "b3", "b4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}

	st := srv.Stats()
	if st.Tenants["a"].Weight != 2 || st.Tenants["b"].Weight != 1 {
		t.Errorf("tenant weights %+v not applied", st.Tenants)
	}
}

func TestCrossTenantCacheSharingAndSingleflight(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := newFabric(t, Config{Workers: 2, Cache: cache})

	// Two tenants submit the identical cell at the same moment: exactly
	// one simulation happens — the other either collapses onto it in
	// flight or reads the freshly-written cache entry.
	spec := JobSpec{Model: "HALF+FX", Workload: "libquantum", MaxInsts: 400_000}
	type outcome struct {
		res Event
		err error
	}
	outcomes := make(chan outcome, 2)
	for _, tenant := range []string{"alice", "bob"} {
		c := &Client{BaseURL: ts.URL, Tenant: tenant}
		go func() {
			id, err := c.Submit(context.Background(), spec)
			if err != nil {
				outcomes <- outcome{err: err}
				return
			}
			var term Event
			err = c.Stream(context.Background(), id, func(e Event) error {
				if e.Terminal() {
					term = e
				}
				return nil
			})
			outcomes <- outcome{res: term, err: err}
		}()
	}
	var results []Event
	for i := 0; i < 2; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Event != EventResult {
			t.Fatalf("terminal event %q (error %q), want result", o.res.Event, o.res.Error)
		}
		results = append(results, o.res)
	}
	if !reflect.DeepEqual(results[0].Result, results[1].Result) {
		t.Error("the two tenants saw different results for the identical cell")
	}

	st := srv.Stats()
	if st.Ran != 1 {
		t.Errorf("Ran = %d, want exactly 1 simulation for 2 identical submissions", st.Ran)
	}
	if st.CacheHits+st.Collapsed != 1 {
		t.Errorf("CacheHits+Collapsed = %d+%d, want 1", st.CacheHits, st.Collapsed)
	}

	// A third tenant arriving later is a plain cross-tenant disk hit.
	c3 := &Client{BaseURL: ts.URL, Tenant: "carol"}
	id, err := c3.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, hit, err := c3.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("third tenant's identical submission was not served from the shared cache")
	}
	if !reflect.DeepEqual(&res, results[0].Result) {
		t.Error("cached result differs from the simulated one")
	}
	st = srv.Stats()
	if st.Ran != 1 || st.CacheHits < 1 {
		t.Errorf("after third tenant: Ran=%d CacheHits=%d, want 1 and >= 1", st.Ran, st.CacheHits)
	}
	if st.Cache.Puts != 1 {
		t.Errorf("shared cache recorded %d puts, want 1", st.Cache.Puts)
	}
}

func TestSubmitValidationAndUnknownJobs(t *testing.T) {
	_, ts, client := newFabric(t, Config{Workers: 1})

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"unknown model", JobSpec{Model: "MEGA", Workload: "libquantum", MaxInsts: 1000}},
		{"unknown workload", JobSpec{Model: "HALF+FX", Workload: "doom", MaxInsts: 1000}},
		{"missing budget", JobSpec{Model: "HALF+FX", Workload: "libquantum"}},
	}
	for _, tc := range cases {
		if code, _, _ := rawPost(t, ts.URL, tc.spec); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	// Unknown fields are rejected too (a typoed knob must not be ignored).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"HALF+FX","workload":"libquantum","max_insts":1000,"warmpu":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	if err := client.Stream(context.Background(), "j-999999", func(Event) error { return nil }); err == nil {
		t.Error("streaming an unknown job did not fail")
	}
	if _, err := client.Cancel(context.Background(), "j-999999"); err == nil {
		t.Error("cancelling an unknown job did not fail")
	}
}

// TestSubmitRejectsOversizedBody: a submit body over the 1 MiB cap gets
// 413 from both a shard and a router, which stop reading at the cap, and
// enqueues nothing.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	huge := `{"model":"HALF+FX","workload":"` + strings.Repeat("a", 2<<20) + `","max_insts":1000}`
	post := func(url string) int {
		t.Helper()
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	srv, ts, _ := newFabric(t, Config{Workers: 1})
	if code := post(ts.URL); code != http.StatusRequestEntityTooLarge {
		t.Errorf("server: status %d, want 413", code)
	}
	if n := srv.Stats().Submitted; n != 0 {
		t.Errorf("server enqueued %d jobs from an oversized body", n)
	}
	shards, rt, rc := newCluster(t, 1)
	if code := post(rc.BaseURL); code != http.StatusRequestEntityTooLarge {
		t.Errorf("router: status %d, want 413", code)
	}
	if n := rt.Stats().Submitted; n != 0 {
		t.Errorf("router enqueued %d jobs from an oversized body", n)
	}
	if n := shards[0].srv.Stats().Submitted; n != 0 {
		t.Errorf("router forwarded %d jobs from an oversized body", n)
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	_, _, client := newFabric(t, Config{Workers: 1, Version: "test-build-1"})
	h, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "test-build-1" || h.Go == "" {
		t.Errorf("healthz = %+v, want ok/test-build-1 with a Go version", h)
	}
}

// TestSampledJobRoundTrip covers the wire-v2 sampled-job path: a job
// submitted with a Sample spec streams to a terminal "result" event
// carrying the sampling Summary (and no Result), and WaitSample returns
// a Summary bit-identical to running the same schedule locally — the
// sampling scheduler's determinism contract extended over the wire.
func TestSampledJobRoundTrip(t *testing.T) {
	_, _, client := newFabric(t, Config{Workers: 2})

	spec := JobSpec{
		Tenant:   "alice",
		Model:    "HALF+FX",
		Workload: "hmmer",
		Sample: &SampleSpec{
			Intervals:     4,
			IntervalInsts: 5_000,
			SkipInsts:     10_000,
			WarmupInsts:   2_000,
			CILevel:       0.95,
		},
	}
	id, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	if err := client.Stream(context.Background(), id, func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Event != EventResult || last.Summary == nil {
		t.Fatalf("terminal event %q (summary=%v), want a result carrying a summary",
			last.Event, last.Summary != nil)
	}
	if last.Result != nil {
		t.Error("sampled job's result event also carries a Result; the summary replaces it")
	}

	remote, err := client.WaitSample(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if remote.SchemaVersion == 0 || remote.IPC.N != spec.Sample.Intervals {
		t.Fatalf("summary lost its schema or CI through the wire: %+v", remote.IPC)
	}

	m, err := fxa.ModelByName(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fxa.WorkloadByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fxa.Sample(context.Background(), m, w, spec.Sample.Config())
	if err != nil {
		t.Fatal(err)
	}
	// Run metrics legitimately differ; the simulation payload must not.
	remote.Sweep, local.Sweep = fxa.SweepStats{}, fxa.SweepStats{}
	if !reflect.DeepEqual(remote, local) {
		t.Error("remote sampling summary differs from the local run of the same schedule")
	}

	// WaitSample on a non-sampled job must fail loudly, not hand back a
	// zero Summary.
	plainID, err := client.Submit(context.Background(), quickSpec("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitSample(context.Background(), plainID); err == nil {
		t.Error("WaitSample on a plain job did not fail")
	}

	// Validation: a sample spec without windows is rejected at submit.
	bad := spec
	bad.Sample = &SampleSpec{Intervals: 0, IntervalInsts: 100}
	if _, err := client.Submit(context.Background(), bad); err == nil {
		t.Error("sample spec with zero intervals was accepted")
	}
}
