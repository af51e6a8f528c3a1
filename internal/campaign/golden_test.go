package campaign

import (
	"bytes"
	"context"
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

// TestGoldenCacheLRUBounds: the cache never holds more completed
// entries than its capacity, evictions are counted, and the resident
// byte footprint tracks the surviving entries: each entry's output plus
// its snapshots, both subtracted on eviction.
func TestGoldenCacheLRUBounds(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newGoldenCache(2, reg)
	for seed := int64(0); seed < 5; seed++ {
		run := &goldenRun{Out: []byte{byte(seed)}, DynSites: 1, forkBytes: 100 * seed}
		if _, err := c.get(seed, func() (*goldenRun, error) { return run, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.items); n > 2 {
		t.Fatalf("%d resident entries, cap 2", n)
	}
	if ev := reg.Counter("cache.evictions").Value(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	if got := reg.Gauge("cache.entries").Value(); got != int64(len(c.items)) {
		t.Fatalf("entries gauge %d, want %d", got, len(c.items))
	}
	// Seeds 3 and 4 survive: 1 output byte each plus 300 and 400
	// snapshot bytes.
	if got, want := reg.Gauge("cache.bytes").Value(), int64(2+300+400); got != want {
		t.Fatalf("bytes gauge %d, want %d (outputs + snapshots of the resident entries)", got, want)
	}
	if got, want := c.forkBytes(), int64(300+400); got != want {
		t.Fatalf("snapshot bytes %d, want %d", got, want)
	}

	// A failed fill must not stick: the next get for that seed re-runs.
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

// TestGoldenCacheSingleflight: concurrent misses on one seed must run
// the fill exactly once, with every waiter receiving the leader's
// result. Run under -race this also proves the cache's happens-before
// edges.
func TestGoldenCacheSingleflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newGoldenCache(4, reg)
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

	// Zero counts normalize to the paper's defaults.
	cfg := valid
	cfg.Experiments, cfg.Campaigns = 0, 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Experiments != 100 || cfg.Campaigns != 20 {
		t.Fatalf("defaults = %d×%d, want 100×20", cfg.Experiments, cfg.Campaigns)
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
