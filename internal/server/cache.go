package server

import (
	"container/list"
	"context"
	"sync"
)

// Cache is the deterministic result cache of the service: a content-addressed
// map from canonical request keys to fully rendered response bodies, bounded
// by a byte budget with least-recently-used eviction, with single-flight
// deduplication of concurrent identical requests.
//
// The cache is only sound because of the determinism contract (DESIGN.md):
// every engine result is a pure function of its canonicalized request, so a
// cached body is bit-identical to what a fresh computation would produce and
// serving it is unobservable — except in latency and in the hit counters.
type Cache struct {
	// fallback, when non-nil, is consulted on a miss before compute runs —
	// the hook the persistent result store (internal/jobs.Store) hangs off:
	// an entry the LRU evicted is re-read from disk instead of recomputed.
	// Set it before the cache serves traffic; it must be safe for
	// concurrent use.
	fallback func(key string) ([]byte, bool)

	mu       sync.Mutex
	budget   int64
	used     int64
	entries  map[string]*list.Element
	lru      list.List // front = most recently used; values are *cacheEntry
	inflight map[string]*flight

	hits, misses, joins, evictions, storeHits uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// flight is one in-progress computation. Followers block on done; the
// leader fills body/err before closing it.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Outcome reports how a Do call was served, for the X-Ulba-Cache response
// header and the tests that pin cache behavior.
type Outcome string

// Do outcomes.
const (
	// Hit served a stored body without computing.
	Hit Outcome = "hit"
	// Miss computed, and (budget permitting) stored the body.
	Miss Outcome = "miss"
	// Join waited on a concurrent identical request's computation.
	Join Outcome = "join"
	// Store served a body from the persistent result store after the LRU
	// had evicted (or never held) it — no engine work, one disk read.
	Store Outcome = "store"
)

// NewCache builds a cache with the given byte budget. budget <= 0 stores
// nothing: the cache degenerates to pure single-flight deduplication.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:   budget,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the response body for key, computing it with compute on a miss.
// Concurrent calls with the same key compute once: followers block until the
// leader finishes and share its body (single flight). A leader error is not
// cached and not shared as a verdict — the error may be the leader's own
// (its context cancelled mid-run), so each follower retries the key instead
// of inheriting it; one follower becomes the new leader. Callers must not
// mutate the returned slice.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			body := el.Value.(*cacheEntry).body
			c.mu.Unlock()
			return body, Hit, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.joins++
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					return f.body, Join, nil
				}
				if err := ctx.Err(); err != nil {
					return nil, Join, err
				}
				continue // leader failed; retry, possibly as the new leader
			case <-ctx.Done():
				return nil, Join, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// The persistent store is the second cache level: consult it under
		// the flight (so concurrent identical requests share one disk read
		// too) before paying for a computation.
		if c.fallback != nil {
			if body, ok := c.fallback(key); ok {
				c.mu.Lock()
				delete(c.inflight, key)
				c.storeHits++
				c.store(key, body)
				c.mu.Unlock()
				f.body = body
				close(f.done)
				return body, Store, nil
			}
		}

		c.mu.Lock()
		c.misses++
		c.mu.Unlock()

		f.body, f.err = compute()

		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.store(key, f.body)
		}
		c.mu.Unlock()
		close(f.done)
		return f.body, Miss, f.err
	}
}

// Seed inserts a body without touching the outcome counters — the warm-load
// path: at startup the server replays the persistent store into the cache so
// results computed before a restart are hits, not recomputations. Unlike
// store, Seed never evicts: it reports false once the body does not fit in
// the remaining budget, telling the loader to stop (anything not seeded is
// still reachable through the fallback).
func (c *Cache) Seed(key string, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := entrySize(key, body)
	if c.used+size > c.budget {
		return false
	}
	if _, ok := c.entries[key]; ok {
		return true
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	c.used += size
	return true
}

// Get returns the body stored for key, counting a hit and refreshing its
// recency; a miss moves no counters and consults no fallback. It is the
// hot-key fast path of admission control: a request whose body is already
// resident serves without an admission token, so load shedding never
// rejects work the server can answer from memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).body, true
	}
	return nil, false
}

// Has reports whether key is immediately servable from the LRU — a pure
// peek: no fallback consultation, no counter movement, no recency update.
// The cluster layer uses it to skip forwarding for locally cached keys.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Admit inserts an externally computed body — a replica push from a cluster
// peer. Eviction applies as for store; the outcome counters do not move
// (the replica was never a request).
func (c *Cache) Admit(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, body)
}

// store inserts a computed body, evicting least-recently-used entries until
// the budget holds. Bodies larger than the whole budget are not stored.
// Callers hold c.mu.
func (c *Cache) store(key string, body []byte) {
	size := entrySize(key, body)
	if size > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A retry after a failed leader can race another leader for the
		// same key; determinism makes the bodies identical, so keep the
		// stored one.
		c.lru.MoveToFront(el)
		return
	}
	for c.used+size > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, e.key)
		c.used -= entrySize(e.key, e.body)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	c.used += size
}

func entrySize(key string, body []byte) int64 {
	return int64(len(key) + len(body))
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"single_flight_joins"`
	StoreHits uint64 `json:"store_hits"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget_bytes"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Joins:     c.joins,
		StoreHits: c.storeHits,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.used,
		Budget:    c.budget,
	}
}
