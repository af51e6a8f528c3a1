package campaign

import (
	"sync"

	"vulfi/internal/telemetry"
)

// goldenCacheMaxEntries bounds the cache regardless of the configured
// pool size, so a huge Inputs value cannot pin an unbounded number of
// golden outputs in memory. Once this many seeds hold entries, a further
// seed's golden run is still filled for its caller but not kept.
const goldenCacheMaxEntries = 1024

// goldenCache memoizes golden counting runs by input seed: a
// concurrency-safe fill-once map with singleflight semantics, so the
// pool workers of a study never duplicate the golden run of a shared
// input. A filled entry stays for the life of the cell. Nothing is ever
// evicted because experiment i reads pool seed i mod K, a fixed cycle:
// past the bound an LRU drops every seed before the cycle returns to
// it, while keeping the first seeds scores a hit on each later pass.
//
// Hit/miss counts and the resident footprint are published on the study
// registry as cache.hits, cache.misses, cache.bytes and cache.entries;
// cache.misses equals the number of golden executions actually
// performed. An entry's footprint is its golden output plus its saved
// states: the post-Setup state and the snapshots (see fork.go).
//
// The cache stores results only — it never observes wall clocks — so a
// cached study's results are byte-identical to an uncached run of the
// same input pool (the per-result Wall fields are the only
// nondeterminism either way).
type goldenCache struct {
	mu    sync.Mutex
	items map[int64]*goldenEntry // input seed -> filled or in-flight entry
	size  int64                  // bytes of kept golden outputs and saved states
	forks int64                  // the saved-state share of size

	hits, misses   *telemetry.Counter
	bytes, entries *telemetry.Gauge
}

// goldenEntry is one memoized (or in-flight) golden run. ready is
// closed once run/err are set; waiters block on it instead of re-running
// the golden execution (singleflight).
type goldenEntry struct {
	ready chan struct{}
	run   *goldenRun
	err   error
}

func newGoldenCache(reg *telemetry.Registry) *goldenCache {
	return &goldenCache{
		items:   map[int64]*goldenEntry{},
		hits:    reg.Counter("cache.hits"),
		misses:  reg.Counter("cache.misses"),
		bytes:   reg.Gauge("cache.bytes"),
		entries: reg.Gauge("cache.entries"),
	}
}

// get returns the memoized golden run for seed, invoking fill exactly
// once per kept seed: the first caller becomes the leader and runs fill
// outside the lock; concurrent callers for the same seed block on the
// leader's result. A failed fill is removed from the cache so a later
// retry re-runs it rather than replaying the error forever. With the
// cache full, fill runs for this caller alone and its result is not
// kept.
func (c *goldenCache) get(seed int64, fill func() (*goldenRun, error)) (*goldenRun, error) {
	c.mu.Lock()
	if e, ok := c.items[seed]; ok {
		c.mu.Unlock()
		c.hits.Inc()
		<-e.ready
		return e.run, e.err
	}
	if len(c.items) >= goldenCacheMaxEntries {
		c.mu.Unlock()
		c.misses.Inc()
		return fill()
	}
	e := &goldenEntry{ready: make(chan struct{})}
	c.items[seed] = e
	c.entries.Set(int64(len(c.items)))
	c.mu.Unlock()
	c.misses.Inc()

	run, err := fill()
	c.mu.Lock()
	e.run, e.err = run, err
	close(e.ready)
	if err != nil {
		delete(c.items, seed)
		c.entries.Set(int64(len(c.items)))
	} else {
		c.size += int64(len(run.Out)) + run.forkBytes
		c.forks += run.forkBytes
		c.bytes.Set(c.size)
	}
	c.mu.Unlock()
	return run, err
}

// forkBytes returns the saved-state bytes of the kept entries.
func (c *goldenCache) forkBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forks
}
