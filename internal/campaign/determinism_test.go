package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/exec"
	"vulfi/internal/passes"
)

// TestStudyDeterministicAcrossWorkers: the worker pool must not change
// results — experiments are indexed, not racing. Two runs of the same
// study with different parallelism must agree exactly.
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *StudyResult {
		cfg := smallCfg(benchmarks.Blackscholes, passes.Control)
		cfg.Workers = workers
		sr, err := RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a := run(1)
	b := run(8)
	// Wall-clock fields are the one legitimately non-deterministic part
	// of a result; zero them before the exact comparison.
	at, bt := a.Totals, b.Totals
	at.WallTotal, at.WallMin, at.WallMax = 0, 0, 0
	bt.WallTotal, bt.WallMin, bt.WallMax = 0, 0, 0
	if at != bt {
		t.Fatalf("worker count changed results:\n1 worker: %+v\n8 workers: %+v",
			at, bt)
	}
	for i := range a.SDCRates {
		if a.SDCRates[i] != b.SDCRates[i] {
			t.Fatalf("campaign %d rate differs: %v vs %v",
				i, a.SDCRates[i], b.SDCRates[i])
		}
	}
}

// TestStudySeedSensitivity: different seeds must (generally) pick
// different dynamic sites; identical seeds must reproduce bit-identical
// injection records.
func TestStudySeedSensitivity(t *testing.T) {
	p, err := Prepare(smallCfg(benchmarks.VectorCopy, passes.PureData))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.RunExperiment(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := p.RunExperiment(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Record != r1again.Record {
		t.Fatal("same seed produced different injections")
	}
	differ := false
	for s := int64(2); s < 10; s++ {
		r, err := p.RunExperiment(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Record != r1.Record {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("eight different seeds all chose the same injection")
	}
}

// TestStudyCancelAndResume: cancelling mid-study must return promptly
// with ctx.Err(), checkpoint exactly the completed (index, seed, result)
// triples through OnResult, and a resumed run seeded with those
// checkpoints must reproduce the uninterrupted study bit-for-bit
// (wall-clock aside — the one legitimately non-deterministic part).
// Traced, the propagation summary is part of that equality: it folds
// the replayed explanations as well as the fresh ones.
func TestStudyCancelAndResume(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			cfg := smallCfg(benchmarks.Blackscholes, passes.Control)
			cfg.Workers = 4
			cfg.Trace = traced
			testCancelAndResume(t, cfg)
		})
	}
}

func testCancelAndResume(t *testing.T, cfg Config) {
	// Uninterrupted reference run.
	ref, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 5 completed experiments.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	journal := map[int]*ExperimentResult{}
	seeds := map[int]int64{}
	icfg := cfg
	icfg.OnResult = func(i int, seed int64, r *ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := journal[i]; dup {
			t.Errorf("experiment %d checkpointed twice", i)
		}
		journal[i], seeds[i] = r, seed
		if len(journal) == 5 {
			cancel()
		}
	}
	start := time.Now()
	if _, err := RunStudy(ctx, icfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled study returned %v, want context.Canceled", err)
	}
	if wait := time.Since(start); wait > 30*time.Second {
		t.Fatalf("cancellation took %s, not prompt", wait)
	}
	mu.Lock()
	total := cfg.Campaigns * cfg.Experiments
	if len(journal) < 5 || len(journal) >= total {
		t.Fatalf("journaled %d experiments, want >=5 and < %d", len(journal), total)
	}
	// The checkpoint must carry exactly the deterministic seed schedule.
	for i, seed := range seeds {
		if want := cfg.ExperimentSeed(i); seed != want {
			t.Fatalf("experiment %d journaled seed %d, want %d", i, seed, want)
		}
	}
	completed := make(map[int]*ExperimentResult, len(journal))
	for i, r := range journal {
		completed[i] = r
	}
	mu.Unlock()

	// Resume: replay the checkpoints, run only the rest.
	rcfg := cfg
	rcfg.Completed = completed
	reran := 0
	rcfg.OnResult = func(i int, _ int64, _ *ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		if _, was := completed[i]; was {
			t.Errorf("experiment %d re-ran despite checkpoint", i)
		}
		reran++
	}
	res, err := RunStudy(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := total - len(completed); reran != want {
		t.Fatalf("resume re-ran %d experiments, want %d", reran, want)
	}

	// Normalize the two legitimately differing parts before the exact
	// comparison: wall-clock times, and the Cfg echo (the resumed config
	// carries checkpoint hooks, which are not statistics).
	normalize := func(sr *StudyResult) {
		sr.Cfg = Config{}
		sr.Wall = 0
		sr.Totals.WallTotal, sr.Totals.WallMin, sr.Totals.WallMax = 0, 0, 0
		for i := range sr.Campaigns {
			sr.Campaigns[i].WallTotal, sr.Campaigns[i].WallMin,
				sr.Campaigns[i].WallMax = 0, 0, 0
		}
	}
	normalize(ref)
	normalize(res)
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("resumed study differs from uninterrupted run:\nref: %+v\nres: %+v",
			ref, res)
	}
	if cfg.Trace && (res.Propagation == nil || res.Propagation.Traced == 0) {
		t.Fatalf("traced resumed study has propagation %+v", res.Propagation)
	}
}

// TestStudyEarlyAbort: the first failing experiment must stop dispatch
// instead of running the remaining hundreds to completion.
func TestStudyEarlyAbort(t *testing.T) {
	var attempts atomic.Int64
	failing := &benchmarks.Benchmark{
		Name:   "FailingSetup",
		Suite:  "Test",
		Entry:  benchmarks.VectorCopy.Entry,
		Source: benchmarks.VectorCopy.Source,
		Setup: func(x *exec.Instance, rng *rand.Rand, scale benchmarks.Scale) (*benchmarks.RunSpec, error) {
			attempts.Add(1)
			return nil, errors.New("synthetic setup failure")
		},
	}
	cfg := smallCfg(failing, passes.PureData)
	cfg.Experiments, cfg.Campaigns, cfg.Workers = 100, 5, 4
	_, err := RunStudy(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "synthetic setup failure") {
		t.Fatalf("study error = %v, want the setup failure", err)
	}
	// Every experiment calls Setup once before failing; without early
	// abort all 500 would run. Allow the in-flight window (one per
	// worker) plus the unbuffered-channel handoff.
	if n := attempts.Load(); n > int64(cfg.Workers*2+2) {
		t.Fatalf("%d experiments attempted after first failure, want early abort", n)
	}
}

// TestWallAggregationExcludesUntimed: the documented merge rule — only
// timed experiments (Wall > 0) participate in WallMin/WallMax, so
// results merged from a pre-timing serialization neither drag the min to
// zero nor leave it stale.
func TestWallAggregationExcludesUntimed(t *testing.T) {
	var c CampaignResult
	c.add(&ExperimentResult{Wall: 40 * time.Millisecond})
	c.add(&ExperimentResult{Wall: 0}) // untimed: excluded from min/max
	c.add(&ExperimentResult{Wall: 10 * time.Millisecond})
	if c.WallMin != 10*time.Millisecond || c.WallMax != 40*time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 10ms/40ms", c.WallMin, c.WallMax)
	}
	if c.WallTotal != 50*time.Millisecond {
		t.Fatalf("total = %v, want 50ms (untimed still counts as zero)", c.WallTotal)
	}

	// Untimed-first: the first timed experiment must establish the min.
	var u CampaignResult
	u.add(&ExperimentResult{Wall: 0})
	u.add(&ExperimentResult{Wall: 20 * time.Millisecond})
	if u.WallMin != 20*time.Millisecond {
		t.Fatalf("untimed-first min = %v, want 20ms", u.WallMin)
	}

	// Merging an all-untimed campaign changes nothing.
	merged := c
	var untimed CampaignResult
	untimed.add(&ExperimentResult{Wall: 0})
	merged.merge(untimed)
	if merged.WallMin != 10*time.Millisecond || merged.WallMax != 40*time.Millisecond {
		t.Fatalf("merge with untimed campaign moved min/max: %v/%v",
			merged.WallMin, merged.WallMax)
	}
	// Merging a timed campaign applies min/max normally.
	var timed CampaignResult
	timed.add(&ExperimentResult{Wall: 5 * time.Millisecond})
	merged.merge(timed)
	if merged.WallMin != 5*time.Millisecond || merged.WallMax != 40*time.Millisecond {
		t.Fatalf("merge with timed campaign: min/max = %v/%v, want 5ms/40ms",
			merged.WallMin, merged.WallMax)
	}
	if merged.Experiments != 5 {
		t.Fatalf("experiments = %d, want 5", merged.Experiments)
	}
}

// TestHangClassifiedAsCrash: force an experiment whose faulty run loops
// past its budget by corrupting the loop-exit compare... statistically:
// run many control-category experiments on Chebyshev and accept if any
// hang was observed OR all outcomes are well-formed (hangs are rare but
// the path must not crash the driver).
func TestHangHandling(t *testing.T) {
	p, err := Prepare(smallCfg(benchmarks.Chebyshev, passes.Control))
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 30; s++ {
		r, err := p.RunExperiment(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hang && r.Outcome != OutcomeCrash {
			t.Fatal("hang not classified as crash")
		}
	}
}
