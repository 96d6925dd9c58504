package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fxa"
	"fxa/internal/engine"
	"fxa/internal/sweep"
)

// Client talks to a running fxad daemon — a worker shard or a router;
// the wire surface is the same. The zero value is not usable; set
// BaseURL (and optionally Tenant / HTTPClient).
type Client struct {
	// BaseURL roots the API, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant stamps submissions that leave JobSpec.Tenant empty.
	Tenant string
	// HTTPClient defaults to http.DefaultClient. Streaming requests are
	// long-lived, so a client with a global Timeout will sever them.
	HTTPClient *http.Client
	// MaxRetries bounds how often Wait/WaitSample re-attach after a
	// transport failure (the server replays the full event log on every
	// attach, so a re-attach loses nothing). <= 0 means
	// DefaultMaxRetries; negative disables re-attach entirely.
	MaxRetries int
}

// DefaultMaxRetries is the Wait/WaitSample re-attach budget when the
// Client leaves MaxRetries 0.
const DefaultMaxRetries = 4

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return DefaultMaxRetries
}

// StatusError is a non-2xx reply the server actually sent — as opposed
// to a transport failure, where no reply arrived at all. The router's
// failover and the client's re-attach both branch on this distinction:
// a spoken rejection is authoritative (retrying elsewhere or again won't
// change a 400), while a transport failure says nothing about the job.
type StatusError struct {
	Code int    // HTTP status code
	Msg  string // wire error message (or raw body)
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// decodeError turns a non-2xx response into a *StatusError carrying the
// wire message.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er ErrorReply
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return &StatusError{Code: resp.StatusCode, Msg: er.Error}
	}
	return &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
}

// Submit submits one job and returns its ID. Backpressure (429) and
// drain (503) responses are retried after the server's Retry-After —
// the bounded queue makes the client pace itself — until ctx expires.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if spec.Tenant == "" {
		spec.Tenant = c.Tenant
	}
	body, err := json.Marshal(&spec)
	if err != nil {
		return "", fmt.Errorf("serve: marshal job spec: %w", err)
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/jobs"), bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return "", err
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK, http.StatusCreated:
			var rep SubmitReply
			err := json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				return "", fmt.Errorf("serve: decode submit reply: %w", err)
			}
			return rep.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			ra := retryAfter(resp)
			resp.Body.Close()
			select {
			case <-time.After(ra):
			case <-ctx.Done():
				return "", ctx.Err()
			}
		default:
			return "", decodeError(resp)
		}
	}
}

// retryAfter parses the Retry-After header, defaulting to one second.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return time.Second
}

// Stream attaches to a job's event stream and invokes fn for every event
// (replayed and live) until the terminal event, an error, or ctx expiry.
// The server replays the full log on every attach, so fn must tolerate
// seeing events it already processed after a reconnect (Event.Seq makes
// deduplication trivial).
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// Result events embed a full engine.Result; give the scanner room.
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("serve: decode event: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
		if e.Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: stream %s: %w", id, err)
	}
	return fmt.Errorf("serve: stream %s ended without a terminal event", id)
}

// streamResilient is Stream plus transport-failure re-attach: when a
// stream dies without the server having spoken (connection reset, route
// blip, stream truncated before its terminal event), it re-attaches and
// relies on the full-log replay plus Seq deduplication to deliver every
// event to fn exactly once. Authoritative replies (*StatusError) and
// context expiry are not retried. The retry budget is Client.MaxRetries.
func (c *Client) streamResilient(ctx context.Context, id string, fn func(Event) error) error {
	lastSeq := -1
	retries := 0
	for {
		err := c.Stream(ctx, id, func(e Event) error {
			if e.Seq <= lastSeq {
				return nil // replayed on re-attach
			}
			lastSeq = e.Seq
			return fn(e)
		})
		if err == nil || ctx.Err() != nil {
			return err
		}
		var se *StatusError
		if errors.As(err, &se) {
			return err // the server spoke; retrying won't change its mind
		}
		if retries >= c.maxRetries() {
			return err
		}
		retries++
		select {
		case <-time.After(time.Duration(retries) * 100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Wait streams a job to its terminal event and returns the result,
// re-attaching across transport failures (see streamResilient). A
// remote error or cancellation comes back as an error carrying the wire
// message. cacheHit reports whether the result came from the shared
// cache or was collapsed onto a concurrent identical run.
func (c *Client) Wait(ctx context.Context, id string) (res engine.Result, cacheHit bool, err error) {
	var term *Event
	err = c.streamResilient(ctx, id, func(e Event) error {
		if e.Terminal() {
			term = &e
		}
		return nil
	})
	if err != nil {
		return engine.Result{}, false, err
	}
	switch term.Event {
	case EventResult:
		return *term.Result, term.CacheHit || term.Collapsed, nil
	case EventCancelled:
		return engine.Result{}, false, fmt.Errorf("serve: job %s cancelled: %s", id, term.Error)
	default:
		return engine.Result{}, false, fmt.Errorf("serve: job %s failed: %s", id, term.Error)
	}
}

// WaitSample streams a sampled job (JobSpec.Sample, wire v2) to its
// terminal event and returns the sampling Summary. Waiting on a job that
// was not submitted with a Sample spec returns an error — its terminal
// event carries a Result, not a Summary.
func (c *Client) WaitSample(ctx context.Context, id string) (fxa.SamplingSummary, error) {
	var term *Event
	err := c.streamResilient(ctx, id, func(e Event) error {
		if e.Terminal() {
			term = &e
		}
		return nil
	})
	if err != nil {
		return fxa.SamplingSummary{}, err
	}
	switch term.Event {
	case EventResult:
		if term.Summary == nil {
			return fxa.SamplingSummary{}, fmt.Errorf("serve: job %s is not a sampled job (no summary on its result event)", id)
		}
		return *term.Summary, nil
	case EventCancelled:
		return fxa.SamplingSummary{}, fmt.Errorf("serve: job %s cancelled: %s", id, term.Error)
	default:
		return fxa.SamplingSummary{}, fmt.Errorf("serve: job %s failed: %s", id, term.Error)
	}
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (CancelReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return CancelReply{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return CancelReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return CancelReply{}, decodeError(resp)
	}
	defer resp.Body.Close()
	var rep CancelReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return CancelReply{}, fmt.Errorf("serve: decode cancel reply: %w", err)
	}
	return rep, nil
}

// Stats fetches the fabric counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.getJSON(ctx, "/v1/stats", &st)
	return st, err
}

// Healthz fetches the liveness view.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	err := c.getJSON(ctx, "/healthz", &h)
	return h, err
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("serve: decode %s: %w", path, err)
	}
	return nil
}

// RemoteEvaluation runs the full Section VI evaluation matrix against a
// remote daemon: one job per (workload, model) cell in the same order a
// local RunEvaluation submits them, assembled with the same
// NewEvaluation, so the remote evaluation is bit-identical to a local
// one (differential-test-enforced). onDone, if non-nil, is invoked from
// a single goroutine after each cell completes.
//
// Each cell is a fingerprint-less sweep job that submits and waits, run
// by sweep.Run on `parallel` workers (<= 0 means 8): the client keeps
// that many jobs streaming while the daemon's own queue and fairness
// decide execution order. Results land positionally, and a failure stops
// dispatch, lets in-flight cells finish and reports the lowest-indexed
// error.
func RemoteEvaluation(ctx context.Context, c *Client, warmup, maxInsts uint64, parallel int, onDone func(done, total int, label string, cached bool)) (*fxa.Evaluation, int, error) {
	if parallel <= 0 {
		parallel = 8
	}
	ws, models := fxa.Workloads(), fxa.Models()
	jobs := make([]sweep.Job, 0, len(ws)*len(models))
	hits := make([]bool, cap(jobs))
	for _, w := range ws {
		for _, m := range models {
			i, label := len(jobs), w.Name+"/"+m.Name
			spec := JobSpec{Model: m.Name, Workload: w.Name, Warmup: warmup, MaxInsts: maxInsts}
			jobs = append(jobs, sweep.Job{
				Label: label,
				Run: func(ctx context.Context) (fxa.Result, error) {
					id, err := c.Submit(ctx, spec)
					var res fxa.Result
					if err == nil {
						res, hits[i], err = c.Wait(ctx, id)
					}
					if err != nil {
						return fxa.Result{}, fmt.Errorf("serve: remote cell %s: %w", label, err)
					}
					return res, nil
				},
			})
		}
	}
	opts := sweep.Options{Workers: parallel}
	if onDone != nil {
		opts.OnEvent = func(e sweep.Event) {
			if e.Kind == sweep.EventDone && e.Err == nil {
				onDone(e.Done, e.Total, e.Label, hits[e.JobIndex])
			}
		}
	}
	results, _, err := sweep.Run(ctx, jobs, opts)
	if err != nil {
		return nil, 0, err
	}
	nhits := 0
	for _, h := range hits {
		if h {
			nhits++
		}
	}
	ev, err := fxa.NewEvaluation(warmup, maxInsts, results)
	return ev, nhits, err
}
