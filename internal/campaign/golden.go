package campaign

import (
	"container/list"
	"sync"

	"vulfi/internal/telemetry"
)

// goldenCacheMaxEntries bounds the cache regardless of the configured
// pool size, so a huge Inputs value cannot pin an unbounded number of
// golden outputs in memory. Entries beyond the bound are evicted in LRU
// order and transparently re-run on the next miss.
const goldenCacheMaxEntries = 1024

// goldenCacheCap sizes the cache for a pool of k input seeds: ideally
// one entry per pool seed, clamped to goldenCacheMaxEntries.
func goldenCacheCap(k int) int {
	if k > goldenCacheMaxEntries {
		return goldenCacheMaxEntries
	}
	return k
}

// goldenCache memoizes golden counting runs by input seed: a
// concurrency-safe bounded LRU with singleflight semantics, so the pool
// workers of a study never duplicate the golden run of a shared input.
//
// Hit/miss/eviction counts and the resident footprint are published on
// the study registry as cache.hits, cache.misses, cache.evictions,
// cache.bytes and cache.entries; cache.misses equals the number of
// golden executions actually performed. An entry's footprint is its
// golden output plus its saved states: the post-Setup state and the
// snapshots (see fork.go).
//
// The cache stores results only — it never observes wall clocks — so a
// cached study's results are byte-identical to an uncached run of the
// same input pool (the per-result Wall fields are the only
// nondeterminism either way).
type goldenCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List              // front = most recently used *goldenEntry
	items map[int64]*list.Element // input seed -> element in order
	size  int64                   // bytes of resident golden outputs and saved states
	forks int64                   // the saved-state share of size

	hits, misses, evictions *telemetry.Counter
	bytes, entries          *telemetry.Gauge
}

// goldenEntry is one memoized (or in-flight) golden run. ready is
// closed once run/err are set; waiters block on it instead of re-running
// the golden execution (singleflight). In-flight entries are pinned:
// the evictor skips them until their leader completes.
type goldenEntry struct {
	seed  int64
	ready chan struct{}
	run   *goldenRun
	err   error
}

func newGoldenCache(capacity int, reg *telemetry.Registry) *goldenCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &goldenCache{
		cap:       capacity,
		order:     list.New(),
		items:     map[int64]*list.Element{},
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		bytes:     reg.Gauge("cache.bytes"),
		entries:   reg.Gauge("cache.entries"),
	}
}

// get returns the memoized golden run for seed, invoking fill exactly
// once per resident seed: the first caller becomes the leader and runs
// fill outside the lock; concurrent callers for the same seed block on
// the leader's result. A failed fill is removed from the cache so a
// later retry re-runs it rather than replaying the error forever.
func (c *goldenCache) get(seed int64, fill func() (*goldenRun, error)) (*goldenRun, error) {
	c.mu.Lock()
	if el, ok := c.items[seed]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*goldenEntry)
		c.mu.Unlock()
		c.hits.Inc()
		<-e.ready
		return e.run, e.err
	}
	e := &goldenEntry{seed: seed, ready: make(chan struct{})}
	c.items[seed] = c.order.PushFront(e)
	c.evict()
	c.entries.Set(int64(len(c.items)))
	c.mu.Unlock()
	c.misses.Inc()

	run, err := fill()
	c.mu.Lock()
	e.run, e.err = run, err
	close(e.ready)
	if err != nil {
		// The evictor may have raced us out already; only remove our own
		// entry, never a fresh one for the same seed.
		if el, ok := c.items[seed]; ok && el.Value.(*goldenEntry) == e {
			c.order.Remove(el)
			delete(c.items, seed)
		}
	} else if _, ok := c.items[seed]; ok {
		c.size += int64(len(run.Out)) + run.forkBytes
		c.forks += run.forkBytes
		c.bytes.Set(c.size)
	}
	c.entries.Set(int64(len(c.items)))
	c.mu.Unlock()
	return run, err
}

// forkBytes returns the saved-state bytes of the resident entries.
func (c *goldenCache) forkBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forks
}

// evict drops completed least-recently-used entries until the cache is
// within capacity. In-flight entries are pinned (their leader still
// needs them for singleflight), so the cache can transiently exceed
// capacity while many distinct seeds are running. Caller holds mu.
func (c *goldenCache) evict() {
	for el := c.order.Back(); el != nil && len(c.items) > c.cap; {
		e := el.Value.(*goldenEntry)
		prev := el.Prev()
		select {
		case <-e.ready:
			if e.err == nil && e.run != nil {
				c.size -= int64(len(e.run.Out)) + e.run.forkBytes
				c.forks -= e.run.forkBytes
			}
			c.order.Remove(el)
			delete(c.items, e.seed)
			c.evictions.Inc()
		default: // in flight: pinned
		}
		el = prev
	}
	c.bytes.Set(c.size)
}
