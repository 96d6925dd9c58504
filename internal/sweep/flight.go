// Singleflight collapsing of concurrent identical jobs.
//
// The on-disk cache alone cannot deduplicate *in-flight* work: two workers
// that pick up jobs with the same content-addressed key both miss the
// cache (the first Put happens only after the first run finishes) and
// both simulate. The parallel CLI already exhibits this with -j > 1 on
// overlapping job sets, and a multi-tenant daemon sharing one cache makes
// it the common case — a million identical submissions must cost one
// simulation.
//
// The flight table closes the window: the first runner of a key becomes
// the leader and simulates; followers arriving while the leader is in
// flight block on its completion and share the result. Sharing is an
// optimization for successes only — a leader that fails (error, panic,
// cancellation) shares nothing, and each follower retries the key itself
// (re-checking the disk cache, possibly becoming the next leader), so one
// tenant's cancelled job can never inject its error into another
// tenant's.

package sweep

import (
	"context"
	"fmt"
	"runtime/debug"

	"fxa/internal/engine"
)

// call is one in-flight execution of a cache key. done is closed after
// res/err/hit are final.
type call struct {
	done chan struct{}
	res  engine.Result
	err  error
	hit  bool // answered from this cache or a peer's, not a simulation
}

// runShared executes run for key with singleflight collapsing: concurrent
// callers of the same key on the same Cache run once. Returns the result
// plus how it was obtained: hit (read from disk) or shared (taken from a
// concurrent leader's in-flight run).
func (c *Cache) runShared(ctx context.Context, key string, run func() (engine.Result, error)) (res engine.Result, hit, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return engine.Result{}, false, false, err
		}
		if res, ok := c.Get(key); ok {
			return res, true, false, nil
		}
		c.mu.Lock()
		if c.flight == nil {
			c.flight = make(map[string]*call)
		}
		if cl, ok := c.flight[key]; ok {
			// Follower: the key is being simulated right now.
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err == nil {
					c.collapsed.Add(1)
					return cl.res, false, true, nil
				}
				// Leader failed; retry independently (next round may
				// find the disk cache populated by a racing Put, an
				// ongoing flight, or make this caller the leader).
				continue
			case <-ctx.Done():
				return engine.Result{}, false, false, ctx.Err()
			}
		}
		// Leader: register the flight, run, publish, unregister.
		cl := &call{done: make(chan struct{})}
		c.flight[key] = cl
		c.mu.Unlock()
		func() {
			defer func() {
				// Unregister before waking followers so a follower that
				// retries after a failure can become the next leader.
				c.mu.Lock()
				delete(c.flight, key)
				c.mu.Unlock()
				close(cl.done)
			}()
			defer func() {
				if r := recover(); r != nil {
					cl.err = fmt.Errorf("sweep: flight leader panicked: %v\n%s", r, debug.Stack())
				}
			}()
			// A leader that finished after this caller's Get missed but
			// before it registered has Put its result already (run
			// puts before the flight is unregistered): look again. A
			// second look that finds nothing is the miss counted above.
			if res, ok := c.load(key); ok {
				c.hits.Add(1)
				cl.res, cl.hit = res, true
				return
			}
			// Federation: before paying for a simulation, ask the
			// second-level lookup (a peer shard's cache). Only the
			// leader asks, so collapsed followers of this key cost zero
			// peer traffic — singleflight is preserved across the
			// fabric. A federated answer is adopted into the local cache
			// (a failed adoption merely costs a refetch next time).
			if fb := c.getFallback(); fb != nil {
				if res, ok := fb(ctx, key); ok {
					c.federated.Add(1)
					_ = c.Put(key, res)
					cl.res, cl.hit = res, true
					return
				}
			}
			cl.res, cl.err = run()
		}()
		// An answer from the second look or a peer reports as a cache
		// hit: the caller did not simulate, it was served an existing
		// entry.
		return cl.res, cl.hit, false, cl.err
	}
}
