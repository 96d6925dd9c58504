// Content-addressed on-disk result cache.
//
// A cache entry is one JSON-encoded engine.Result stored under
// <dir>/<sha256>.json, where the hash covers the canonical JSON encoding
// of {SimVersion, job fingerprint}. The fingerprint is whatever the job
// submitter chose — for the evaluation matrix it is the full model
// configuration, the workload parameters and the instruction budget — so
// any change to the simulated configuration changes the key and misses
// the cache. Changes to the timing model itself are invalidated by
// bumping SimVersion.
//
// Writes are atomic (temp file + rename) and the cache is safe for
// concurrent use by the worker pool: every key maps to an independent
// file, and concurrent writers of the same key race benignly to identical
// contents. Corrupt or unreadable entries behave as misses.

package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fxa/internal/engine"
)

// SimVersion identifies the timing/energy-model generation baked into the
// cache key. Bump it whenever a change to the simulator can alter the
// Result of an unchanged (model, workload, maxInsts) job, so stale
// entries are never returned.
const SimVersion = 2

// Key hashes a job fingerprint (plus SimVersion) into the cache key: a
// lowercase hex SHA-256 of the canonical JSON encoding. Fingerprints must
// be JSON-serializable and deterministic (structs of plain data; avoid
// maps with nondeterministic iteration — json.Marshal sorts map keys, so
// even those are safe).
func Key(fingerprint any) (string, error) {
	payload := struct {
		SimVersion  int
		Fingerprint any
	}{SimVersion, fingerprint}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("sweep: marshal fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is a content-addressed on-disk result store. One Cache may be
// shared by any number of concurrent Run calls (and long-running daemons):
// concurrent executions of the same key are collapsed through the flight
// table (see flight.go), and the counters accumulate across the Cache's
// whole lifetime, so a serving process can export cumulative hit rates.
type Cache struct {
	dir string

	mu       sync.Mutex       // guards flight and fallback
	flight   map[string]*call // in-flight executions by key
	fallback FallbackFunc     // consulted by flight leaders after a local miss

	hits      atomic.Uint64 // Get: entry present and decodable
	misses    atomic.Uint64 // Get: absent or corrupt
	puts      atomic.Uint64 // successful Put calls
	collapsed atomic.Uint64 // followers served from a leader's in-flight run
	federated atomic.Uint64 // leaders answered by the fallback (a cache peer)
}

// FallbackFunc is a second-level lookup consulted after a local cache
// miss, immediately before the flight leader would simulate: the
// fabric's cache federation (a shard asking its peer shards over HTTP,
// see internal/serve) plugs in here. It must return (result, true) only
// for a genuine entry of exactly this key; any failure — peer down,
// network error, miss — is reported as (zero, false) and the leader
// simulates as usual, so federation can only remove work, never
// correctness. A fallback answer is adopted into the local cache.
type FallbackFunc func(ctx context.Context, key string) (engine.Result, bool)

// SetFallback installs (or, with nil, removes) the cache's second-level
// lookup. Safe to call concurrently with lookups; the usual pattern is
// to install it once at daemon startup.
func (c *Cache) SetFallback(fn FallbackFunc) {
	c.mu.Lock()
	c.fallback = fn
	c.mu.Unlock()
}

// getFallback returns the installed fallback, if any.
func (c *Cache) getFallback() FallbackFunc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fallback
}

// CacheStats are a Cache's cumulative lifetime counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`      // lookups answered from disk
	Misses    uint64 `json:"misses"`    // lookups that found nothing usable
	Puts      uint64 `json:"puts"`      // entries written
	Collapsed uint64 `json:"collapsed"` // concurrent identical runs deduplicated in flight
	Federated uint64 `json:"federated"` // leaders answered by a cache peer instead of simulating
}

// HitRate returns the fraction of lookups answered from disk (0 when no
// lookups happened).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's cumulative counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Collapsed: c.collapsed.Load(),
		Federated: c.federated.Load(),
	}
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached Result for key, if present and decodable.
func (c *Cache) Get(key string) (engine.Result, bool) {
	res, ok := c.load(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// load is Get without counting the lookup.
func (c *Cache) load(key string) (engine.Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return engine.Result{}, false
	}
	var res engine.Result
	if err := json.Unmarshal(b, &res); err != nil {
		// Corrupt entry: drop it and treat as a miss.
		_ = os.Remove(c.path(key))
		return engine.Result{}, false
	}
	return res, true
}

// Peek returns the raw stored bytes for key without touching the
// hit/miss counters or the fallback — the read side of the fabric's
// cache-federation endpoint (GET /v1/cache/{key} in internal/serve),
// which must serve exactly what is on disk and must not have a peer's
// lookup skew this cache's own hit rate. A corrupt entry (undecodable
// JSON) is reported as absent, mirroring Get.
func (c *Cache) Peek(key string) ([]byte, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var res engine.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false
	}
	return b, true
}

// Put stores res under key atomically.
func (c *Cache) Put(key string, res engine.Result) error {
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encode result: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := os.Rename(tmpName, c.path(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Len returns the number of entries currently stored.
func (c *Cache) Len() (int, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
