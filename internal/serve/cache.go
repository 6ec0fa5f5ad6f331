package serve

import (
	"container/list"
	"sync"
)

// cacheKey addresses one cached response body. epoch 0 is reserved for
// store-independent results (sweep launches, E14, E15), which stay valid
// as the live store's epoch advances; every store-derived body carries
// the epoch it was computed at and is stranded — then pruned — the moment
// a checkpoint publishes a newer epoch.
type cacheKey struct {
	digest string
	epoch  uint64
	id     string
}

// cacheEntry is one body, or one in-flight computation of it: ready is
// closed once body/err are set, and concurrent misses for the same key
// wait on it instead of recomputing.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	body  []byte
	err   error
	elem  *list.Element
}

// CacheStats is the cache's observability counter set, reported by
// /api/meta/layout.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Pruned    int64 `json:"pruned"`
}

// resultCache is the concurrency-safe, epoch-aware LRU body cache. The
// mutex guards only the map and list — computations run outside it, so a
// slow cold body never blocks hits for other keys.
type resultCache struct {
	mu    sync.Mutex
	max   int
	m     map[cacheKey]*cacheEntry
	order *list.List // front = most recently used
	stats CacheStats
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 256
	}
	return &resultCache{max: max, m: make(map[cacheKey]*cacheEntry), order: list.New()}
}

// get returns the body for key, computing it via fn on a miss. Exactly
// one caller computes per key; the rest wait for it. A failed computation
// is not cached — the entry is dropped so a later call retries. The third
// return reports whether this call was served from cache (it waited on
// nobody and computed nothing).
func (c *resultCache) get(key cacheKey, fn func() ([]byte, error)) ([]byte, error, bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.order.MoveToFront(e.elem)
		c.stats.Hits++
		mCacheHits.Inc()
		c.mu.Unlock()
		select {
		case <-e.ready:
		default:
			// The body is still being computed by another caller — this is
			// the singleflight path, counted separately from settled hits.
			mCacheSingleflight.Inc()
			<-e.ready
		}
		return e.body, e.err, true
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.m[key] = e
	c.stats.Misses++
	mCacheMisses.Inc()
	c.evictLocked()
	c.mu.Unlock()

	e.body, e.err = fn()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// The entry may already have been evicted or pruned; delete is
		// conditional on identity so a fresh entry under the same key
		// survives.
		if cur, ok := c.m[key]; ok && cur == e {
			delete(c.m, key)
			c.order.Remove(e.elem)
		}
		c.mu.Unlock()
	}
	return e.body, e.err, false
}

// evictLocked trims the LRU tail down to max entries. Waiters on an
// evicted in-flight entry still get their body — eviction only forgets
// the key, it never cancels the computation.
func (c *resultCache) evictLocked() {
	for len(c.m) > c.max {
		back := c.order.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.m, e.key)
		c.stats.Evictions++
		mCacheEvictions.Inc()
	}
}

// prune drops every store-derived entry below the epoch (epoch-0 entries
// are store-independent and stay). Called at each publish, so stale
// bodies are released as soon as new segments make them unreachable.
func (c *resultCache) prune(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.m {
		if key.epoch != 0 && key.epoch < epoch {
			delete(c.m, key)
			c.order.Remove(e.elem)
			c.stats.Pruned++
			mCachePruned.Inc()
		}
	}
}

// snapshot returns the current counters.
func (c *resultCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.m)
	return st
}
