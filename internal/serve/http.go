package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs        submit a JobSpec; 202 + {id}, 429 when full, 413 over 1 MiB
//	GET    /v1/jobs/{id}   NDJSON event stream (replay + live until terminal)
//	DELETE /v1/jobs/{id}   cancel a queued or in-flight job
//	GET    /v1/stats       fabric counters (queues, cache, tenants)
//	GET    /v1/cache/{key} raw cached result by content address (federation, wire v3)
//	GET    /healthz        liveness + build version
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// RouterHandler returns a router-mode daemon's HTTP API — the same
// surface a worker shard serves (minus the cache endpoint: a router has
// no cache), so every client of a single fxad keeps working unchanged
// when pointed at a router.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleCancel)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	return mux
}

// writeJSON emits one JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError emits the uniform error body.
func writeError(w http.ResponseWriter, code int, err error, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, ErrorReply{Error: err.Error(), RetryAfter: retryAfter})
}

// maxSpecBytes caps a submitted JobSpec body. A spec is well under 1 KiB;
// the cap stops one huge JSON string from being buffered whole.
const maxSpecBytes = 1 << 20

// decodeSpec reads a submitted JobSpec, shared by the shard and router
// submit handlers. It answers 413 for a body over maxSpecBytes and 400
// for any other decode error, and reports whether spec is usable.
func decodeSpec(w http.ResponseWriter, r *http.Request, spec *JobSpec) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(spec)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("serve: decode job spec: %w", err), 0)
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	jr, err := s.Submit(spec)
	if err != nil {
		var full errQueueFull
		switch {
		case errors.As(err, &full):
			// Backpressure: the queue is bounded; tell the client when
			// the backlog should have drained enough to try again.
			writeError(w, http.StatusTooManyRequests, err, full.retryAfter)
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, err, 1)
		default:
			writeError(w, http.StatusBadRequest, err, 0)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitReply{ID: jr.id, Status: stateQueued.String()})
}

// streamLog serves a replayable event log as NDJSON: replay everything
// logged so far, then follow live until the terminal event or the client
// disconnects. snap is the log's snapshot accessor (jobRec.snapshot) —
// shard and router job logs share this loop.
func streamLog(w http.ResponseWriter, r *http.Request, snap func(from int) ([]Event, <-chan struct{}, bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	pos := 0
	for {
		evs, notify, terminal := snap(pos)
		for i := range evs {
			if err := enc.Encode(&evs[i]); err != nil {
				return // client went away; the job keeps running
			}
		}
		pos += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			// Client disconnected mid-stream. The job is unaffected;
			// re-attaching replays the full log.
			return
		}
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	jr, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q (completed jobs are retained for re-attach up to the retention cap)", r.PathValue("id")), 0)
		return
	}
	streamLog(w, r, jr.snapshot)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id), 0)
		return
	}
	status := state.String()
	if state == stateRunning {
		// The abort is in flight; the terminal event lands on the stream
		// within a few thousand simulated cycles.
		status = "cancelling"
	}
	writeJSON(w, http.StatusOK, CancelReply{ID: id, Status: status})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// validCacheKey admits exactly the keys sweep.Key produces: a lowercase
// hex SHA-256. Everything else is rejected before it can reach the
// filesystem-backed cache as a path fragment.
func validCacheKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleCachePeek is the cache-federation read path (wire v3): a peer
// shard that missed its local cache asks for the raw stored entry before
// paying for a simulation. Served bytes are exactly the on-disk entry
// (sweep.Cache.Peek), and the lookup does not touch this shard's own
// hit/miss counters or its fallback — federation must not recurse or
// skew local stats.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: cache key must be a lowercase hex sha-256"), 0)
		return
	}
	if s.cfg.Cache == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: caching is disabled on this shard"), 0)
		return
	}
	b, ok := s.cfg.Cache.Peek(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cache entry for %s", key), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// Router-mode handlers: same wire surface as a shard's, backed by the
// router's own job store and proxy pumps.

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeSpec(w, r, &spec) {
		return
	}
	rj, err := rt.Submit(spec)
	if err != nil {
		if errors.Is(err, errDraining) {
			writeError(w, http.StatusServiceUnavailable, err, 1)
			return
		}
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitReply{ID: rj.id, Status: stateQueued.String()})
}

func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	rj, ok := rt.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q (completed jobs are retained for re-attach up to the retention cap)", r.PathValue("id")), 0)
		return
	}
	streamLog(w, r, rj.snapshot)
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := rt.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id), 0)
		return
	}
	status := state.String()
	if state == stateRunning {
		status = "cancelling"
	}
	writeJSON(w, http.StatusOK, CancelReply{ID: id, Status: status})
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Health())
}
