package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/system"
)

// resultCache is a content-addressed map from job key to simulation result
// with singleflight de-duplication: the first requester of a key becomes
// the leader and computes; everyone else arriving before completion waits
// on the same entry. The lock covers map operations only, never a
// computation.
type resultCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one key's slot. done is closed when res/err are final;
// until then the entry is an in-flight computation waiters block on.
type cacheEntry struct {
	done chan struct{}
	res  *system.Results
	err  error

	// hit is the /run reply body for a cache hit on this key, rendered by
	// hitBody on the first such hit.
	hitOnce sync.Once
	hit     []byte
}

// hitBody returns the /run body for a cache hit on e: the bytes
// writeJSON(w, http.StatusOK, req.reply(true, e.res)) writes. Every field of
// that reply is a function of the key (the workload, scheme, scale and
// config hash it is formatted from, and the result), so the body is rendered
// once, on the first hit, and written verbatim after. Entries that are never
// hit over /run (store warm-load, figures, cold jobs) never render. e must
// hold a result.
func (e *cacheEntry) hitBody(req *runRequest) []byte {
	e.hitOnce.Do(func() {
		var b bytes.Buffer
		encodeJSON(&b, req.reply(true, e.res))
		e.hit = b.Bytes()
	})
	return e.hit
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]*cacheEntry)}
}

// do returns key's entry once its result is final, computing it at most
// once across concurrent callers. The bool reports a cache hit: true when
// the result came from an existing entry (completed or coalesced onto an
// in-flight leader), false for the leader that ran compute. A failed
// computation is not cached — the entry is removed before waiters are
// released, so the next request retries — but in-flight waiters do observe
// the leader's error. The entry is nil only when ctx ended the wait.
func (c *resultCache) do(ctx context.Context, key string, compute func() (*system.Results, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			return e, e.err == nil, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	// The cleanup runs via defer so a panicking compute (net/http recovers
	// handler panics and keeps the daemon up) still releases waiters with
	// an error and leaves the key retryable instead of bricked behind a
	// never-closed done channel.
	finished := false
	defer func() {
		if !finished {
			e.err = fmt.Errorf("service: computation for key %s panicked", key)
		}
		if e.err != nil {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.res, e.err = compute()
	finished = true
	return e, false, e.err
}

// has reports whether key has an entry (completed or in-flight). It is the
// load-shedding probe: requests resolvable without a new simulation are
// admitted even when the queue is full.
func (c *resultCache) has(key string) bool {
	c.mu.Lock()
	_, ok := c.m[key]
	c.mu.Unlock()
	return ok
}

// seed installs a completed entry (a result recovered from the durable
// store at boot). First writer wins; a concurrent in-flight computation for
// the key is left alone. Reports whether the entry was installed.
func (c *resultCache) seed(key string, res *system.Results) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return false
	}
	e := &cacheEntry{done: make(chan struct{}), res: res}
	close(e.done)
	c.m[key] = e
	return true
}

// len counts completed and in-flight entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
