package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// scrubWall zeroes the wall-clock fields of a study result — the only
// legitimately nondeterministic part of an export — so two runs can be
// compared byte-for-byte through WriteJSON.
func scrubWall(sr *StudyResult) {
	sr.Wall = 0
	sr.Totals.WallTotal, sr.Totals.WallMin, sr.Totals.WallMax = 0, 0, 0
	for i := range sr.Campaigns {
		c := &sr.Campaigns[i]
		c.WallTotal, c.WallMin, c.WallMax = 0, 0, 0
	}
}

func studyBytes(t *testing.T, sr *StudyResult) []byte {
	t.Helper()
	scrubWall(sr)
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCacheEquivalence is the tentpole invariant: a cached study
// must be observationally identical to the same study run without the
// cache. The uncached reference is the same prepared cell with its
// cache knocked out, so both runs share the Inputs-driven seed
// schedule and differ only in golden-run memoization.
func TestGoldenCacheEquivalence(t *testing.T) {
	cfg := smallCfg(benchmarks.Blackscholes, passes.Control)
	cfg.Inputs = 4

	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	cached, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("cache.hits").Value(); hits == 0 {
		t.Fatal("cached study recorded no cache hits")
	}
	if misses := reg.Counter("cache.misses").Value(); misses > uint64(cfg.Inputs) {
		t.Fatalf("%d golden executions for a pool of %d inputs", misses, cfg.Inputs)
	}

	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.golden = nil // same schedule, no memoization
	uncached, err := p.RunStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got, want := studyBytes(t, cached), studyBytes(t, uncached)
	if !bytes.Equal(got, want) {
		t.Fatalf("cached study diverged from uncached reference:\ncached:  %s\nuncached: %s",
			got, want)
	}
}

// TestGoldenCacheResumeEquivalence: checkpointing a cached study and
// resuming it (replaying the first half through Cfg.Completed, exactly
// as the vulfid journal does) must reproduce the uninterrupted study
// byte-for-byte.
func TestGoldenCacheResumeEquivalence(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Inputs = 2

	var mu sync.Mutex
	checkpoints := map[int]*ExperimentResult{}
	cfg.OnResult = func(i int, seed int64, r *ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		checkpoints[i] = r
	}
	full, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	resumedCfg := cfg
	resumedCfg.OnResult = nil
	resumedCfg.Completed = map[int]*ExperimentResult{}
	total := cfg.Campaigns * cfg.Experiments
	for i := 0; i < total/2; i++ {
		resumedCfg.Completed[i] = checkpoints[i]
	}
	resumed, err := RunStudy(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}

	got, want := studyBytes(t, resumed), studyBytes(t, full)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed cached study diverged:\nresumed: %s\nfull:    %s", got, want)
	}
}

// TestInputPoolSchedule: with Inputs = K the study cycles through K
// program inputs — experiment i and experiment i+K must see the same
// input, and the pool must contain exactly K distinct inputs.
func TestInputPoolSchedule(t *testing.T) {
	const k = 3
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Inputs = k
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 3*k)
	for i := range labels {
		r, err := p.RunExperimentAt(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		labels[i] = r.InputLabel
	}
	distinct := map[string]bool{}
	for i, l := range labels {
		distinct[l] = true
		if want := labels[i%k]; l != want {
			t.Fatalf("experiment %d input %q, want pool slot %d input %q", i, l, i%k, want)
		}
	}
	// Labels encode the drawn input (e.g. its size), so distinct pool
	// seeds may collide on a label — but there can never be more labels
	// than pool slots.
	if len(distinct) > k {
		t.Fatalf("pool of %d produced %d distinct inputs: %v", k, len(distinct), distinct)
	}

	// And the pool draws the same inputs the uncached schedule would:
	// pool seed j is experiment j's own input seed.
	if got, want := cfg.InputSeed(k+1), cfg.ExperimentSeed(1); got != want {
		t.Fatalf("InputSeed(%d) = %d, want ExperimentSeed(1) = %d", k+1, got, want)
	}
}

// TestGoldenCacheBounds: the cache keeps at most goldenCacheMaxEntries
// seeds and never drops a filled one, a seed past the bound is filled
// for its caller on every use but not kept, every fill counts as a miss,
// and the resident byte footprint is the kept entries' outputs plus
// their saved states.
func TestGoldenCacheBounds(t *testing.T) {
	const n = goldenCacheMaxEntries
	reg := telemetry.NewRegistry()
	c := newGoldenCache(reg)
	fills := uint64(0)
	kept := make([]*goldenRun, n)
	for pass := 0; pass < 2; pass++ {
		for seed := int64(0); seed < n+3; seed++ {
			run := &goldenRun{Out: []byte{byte(seed)}, DynSites: 1, forkBytes: seed}
			got, err := c.get(seed, func() (*goldenRun, error) {
				fills++
				return run, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case pass == 0 && seed < n:
				kept[seed] = got
			case pass == 1 && seed < n && got != kept[seed]:
				t.Fatalf("seed %d: second pass got a new run, want the kept one", seed)
			case seed >= n && got != run:
				t.Fatalf("seed %d past the bound: got %p, want its own fill %p", seed, got, run)
			}
		}
	}
	if len(c.items) != n {
		t.Fatalf("%d resident entries, bound %d", len(c.items), n)
	}
	if got := reg.Gauge("cache.entries").Value(); got != n {
		t.Fatalf("entries gauge %d, want %d", got, n)
	}
	if hits := reg.Counter("cache.hits").Value(); hits != n {
		t.Fatalf("hits = %d, want %d (one per kept seed on the second pass)", hits, n)
	}
	if misses := reg.Counter("cache.misses").Value(); misses != fills || fills != n+6 {
		t.Fatalf("misses = %d, fills = %d, want both %d", misses, fills, n+6)
	}
	// Seeds 0..n-1 are kept: 1 output byte each plus seed bytes of saved
	// states.
	states := int64(n * (n - 1) / 2)
	if got, want := reg.Gauge("cache.bytes").Value(), n+states; got != want {
		t.Fatalf("bytes gauge %d, want %d (outputs + saved states of the kept entries)", got, want)
	}
	if got := c.forkBytes(); got != states {
		t.Fatalf("saved-state bytes %d, want %d", got, states)
	}

	// A failed fill must not stick: the next get for that seed re-runs.
	c = newGoldenCache(telemetry.NewRegistry())
	wantErr := fmt.Errorf("boom")
	if _, err := c.get(99, func() (*goldenRun, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	ran := false
	if _, err := c.get(99, func() (*goldenRun, error) {
		ran = true
		return &goldenRun{Out: []byte{1}}, nil
	}); err != nil || !ran {
		t.Fatalf("retry after failed fill: ran=%v err=%v", ran, err)
	}
}

// TestGoldenCachePoolPastTheBound: experiment i reads pool seed i mod K,
// so with K past the bound each seed comes back only after K-1 others.
// The kept seeds hit on the second pass, one hit each (an LRU of the
// same bound drops every seed before its return and scores none). The
// seeds past the bound refill under the same cache-fill span identity,
// so the canonical span tree does not depend on the worker count.
func TestGoldenCachePoolPastTheBound(t *testing.T) {
	const k = 1100
	run := func(workers int) (*StudyResult, *telemetry.Registry) {
		cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
		cfg.Inputs = k
		cfg.Experiments, cfg.Campaigns = k, 2
		cfg.Workers = workers
		cfg.Timeline = true
		cfg.Metrics = telemetry.NewRegistry()
		sr, err := RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sr, cfg.Metrics
	}
	one, reg := run(1)
	if hits := reg.Counter("cache.hits").Value(); hits != goldenCacheMaxEntries {
		t.Fatalf("hits = %d, want %d", hits, goldenCacheMaxEntries)
	}
	if misses := reg.Counter("cache.misses").Value(); misses != 2*k-goldenCacheMaxEntries {
		t.Fatalf("misses = %d, want %d", misses, 2*k-goldenCacheMaxEntries)
	}
	four, _ := run(4)
	a, err := json.Marshal(one.Timeline.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(four.Timeline.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("worker count changed the canonical span tree of a pool past the bound")
	}
}

// TestGoldenCacheSingleflight: concurrent misses on one seed must run
// the fill exactly once, with every waiter receiving the leader's
// result. Run under -race this also proves the cache's happens-before
// edges.
func TestGoldenCacheSingleflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newGoldenCache(reg)
	var fills atomic.Int64
	gate := make(chan struct{})
	want := &goldenRun{Out: []byte("golden"), DynSites: 7}

	const waiters = 16
	var wg sync.WaitGroup
	runs := make([]*goldenRun, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := c.get(42, func() (*goldenRun, error) {
				fills.Add(1)
				<-gate // hold the flight open until everyone has joined
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			runs[i] = run
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for i, run := range runs {
		if run != want {
			t.Fatalf("waiter %d got %p, want the leader's %p", i, run, want)
		}
	}
	if hits := reg.Counter("cache.hits").Value(); hits != waiters-1 {
		t.Fatalf("hits = %d, want %d", hits, waiters-1)
	}
}

// TestConfigValidate: one validation gate serves every entry point, so
// its rejections and defaults are pinned here.
func TestConfigValidate(t *testing.T) {
	valid := smallCfg(benchmarks.VectorCopy, passes.PureData)
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no benchmark", func(c *Config) { c.Benchmark = nil }},
		{"no isa", func(c *Config) { c.ISA = nil }},
		{"bad category", func(c *Config) { c.Category = passes.Address + 1 }},
		{"bad scale", func(c *Config) { c.Scale = benchmarks.ScaleLarge + 1 }},
		{"negative experiments", func(c *Config) { c.Experiments = -1 }},
		{"negative campaigns", func(c *Config) { c.Campaigns = -5 }},
		{"negative workers", func(c *Config) { c.Workers = -2 }},
		{"negative inputs", func(c *Config) { c.Inputs = -1 }},
	}
	for _, tc := range bad {
		cfg := valid
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}

	// Zero counts normalize to the paper's defaults, and an unset
	// backend to the vm.
	cfg := valid
	cfg.Experiments, cfg.Campaigns = 0, 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Experiments != 100 || cfg.Campaigns != 20 {
		t.Fatalf("defaults = %d×%d, want 100×20", cfg.Experiments, cfg.Campaigns)
	}
	if cfg.Backend != "vm" {
		t.Fatalf("default backend = %q, want vm", cfg.Backend)
	}
}

// TestTraceBypassesCache: tracing needs a live golden ring per
// experiment, so a traced cell must not construct the cache even when
// an input pool is configured.
func TestTraceBypassesCache(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Inputs = 4
	cfg.Trace = true
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.golden != nil {
		t.Fatal("traced cell built a golden cache; tracing must bypass it")
	}
	r, err := p.RunExperimentAt(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.DynSites > 0 && r.Explanation == nil {
		t.Fatal("traced experiment carried no explanation")
	}
}
