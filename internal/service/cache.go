package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/system"
)

// resultCache is a sharded, content-addressed map from job key to simulation
// result with singleflight de-duplication: the first requester of a key
// becomes the leader and computes; everyone else arriving before completion
// waits on the same entry. Sharding keeps the lock a leader holds while
// publishing an entry from serializing unrelated keys.
type resultCache struct {
	shards [cacheShards]cacheShard
}

// cacheShards is the number of independently locked cache shards.
const cacheShards = 16

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one key's slot. done is closed when res/err are final;
// until then the entry is an in-flight computation waiters block on.
type cacheEntry struct {
	done chan struct{}
	res  *system.Results
	err  error
}

func newResultCache() *resultCache {
	c := &resultCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// do returns key's result, computing it at most once across concurrent
// callers. The bool reports a cache hit: true when the result came from an
// existing entry (completed or coalesced onto an in-flight leader), false
// for the leader that ran compute. A failed computation is not cached —
// the entry is removed before waiters are released, so the next request
// retries — but in-flight waiters do observe the leader's error.
func (c *resultCache) do(ctx context.Context, key string, compute func() (*system.Results, error)) (*system.Results, bool, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			return e.res, e.err == nil, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()

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
			sh.mu.Lock()
			delete(sh.m, key)
			sh.mu.Unlock()
		}
		close(e.done)
	}()
	e.res, e.err = compute()
	finished = true
	return e.res, false, e.err
}

// has reports whether key has an entry (completed or in-flight). It is the
// load-shedding probe: requests resolvable without a new simulation are
// admitted even when the queue is full.
func (c *resultCache) has(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	sh.mu.Unlock()
	return ok
}

// seed installs a completed entry (a result recovered from the durable
// store at boot). First writer wins; a concurrent in-flight computation for
// the key is left alone. Reports whether the entry was installed.
func (c *resultCache) seed(key string, res *system.Results) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return false
	}
	e := &cacheEntry{done: make(chan struct{}), res: res}
	close(e.done)
	sh.m[key] = e
	return true
}

// len counts completed and in-flight entries across shards.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
