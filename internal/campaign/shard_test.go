package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/passes"
)

// collectShard runs cfg restricted to [lo, hi) and returns the triples
// it checkpointed, asserting every executed index stayed in range.
func collectShard(t *testing.T, cfg Config, lo, hi int) map[int]*ExperimentResult {
	t.Helper()
	cfg.ShardStart, cfg.ShardEnd = lo, hi
	var mu sync.Mutex
	got := map[int]*ExperimentResult{}
	cfg.OnResult = func(i int, seed int64, r *ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		if i < lo || i >= hi {
			t.Errorf("shard [%d,%d) executed out-of-range experiment %d", lo, hi, i)
		}
		got[i] = r
	}
	if _, err := RunStudy(context.Background(), cfg); err != nil {
		t.Fatalf("shard [%d,%d): %v", lo, hi, err)
	}
	return got
}

// TestShardRangeRestrictsExecution: a shard config executes exactly its
// half-open index range, nothing else.
func TestShardRangeRestrictsExecution(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	total := cfg.Campaigns * cfg.Experiments
	got := collectShard(t, cfg, 3, 11)
	if len(got) != 8 {
		t.Fatalf("shard [3,11) checkpointed %d experiments, want 8", len(got))
	}
	for i := 3; i < 11; i++ {
		if got[i] == nil {
			t.Errorf("shard [3,11) missing experiment %d", i)
		}
	}
	// A shard fully outside the schedule is legal at the campaign layer
	// only via validation bounds; the last in-range slice works too.
	edge := collectShard(t, cfg, total-2, total)
	if len(edge) != 2 {
		t.Fatalf("tail shard checkpointed %d experiments, want 2", len(edge))
	}
}

// TestShardMergeEquivalence is the distributed-campaign invariant: the
// union of N disjoint shard runs, merged through one Completed-map
// replay of the unsharded config, must reproduce the single-node
// study's JSON byte for byte (wall fields scrubbed — they measure this
// machine's clock, the one thing sharding legitimately changes).
// Atlas site tallies ride along: attribution reads only replayed
// results plus deterministic profiling runs. So does the traced
// variant's propagation summary, folded from the replayed explanations.
func TestShardMergeEquivalence(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			base := smallCfg(benchmarks.Blackscholes, passes.Control)
			base.Atlas = true
			base.Inputs = 2
			base.Trace = traced
			testShardMerge(t, base)
		})
	}
}

func testShardMerge(t *testing.T, base Config) {
	total := base.Campaigns * base.Experiments

	full, err := RunStudy(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := studyBytes(t, full)
	if base.Trace && !bytes.Contains(want, []byte(`"propagation"`)) {
		t.Fatal("traced study has no propagation summary")
	}

	for _, shards := range []int{1, 2, 7} {
		merged := map[int]*ExperimentResult{}
		per := (total + shards - 1) / shards
		for lo := 0; lo < total; lo += per {
			hi := lo + per
			if hi > total {
				hi = total
			}
			for i, r := range collectShard(t, base, lo, hi) {
				merged[i] = r
			}
		}
		if len(merged) != total {
			t.Fatalf("%d shards: union has %d/%d experiments", shards, len(merged), total)
		}
		mergeCfg := base
		mergeCfg.Completed = merged
		sr, err := RunStudy(context.Background(), mergeCfg)
		if err != nil {
			t.Fatalf("%d shards: merge: %v", shards, err)
		}
		if got := studyBytes(t, sr); !bytes.Equal(got, want) {
			t.Fatalf("%d shards: merged study diverged:\nmerged: %s\nfull:   %s",
				shards, got, want)
		}
	}
}

// TestShardRangeValidation: the shard range is validated against the
// (defaulted) schedule with descriptive errors.
func TestShardRangeValidation(t *testing.T) {
	base := smallCfg(benchmarks.VectorCopy, passes.PureData)
	total := base.Campaigns * base.Experiments
	cases := []struct {
		lo, hi int
		want   string // substring of the error; "" = valid
	}{
		{0, 0, ""},
		{0, total, ""},
		{total - 1, total, ""},
		{-1, 5, "non-negative"},
		{3, 0, "without ShardEnd"},
		{5, 5, "empty shard range"},
		{7, 3, "empty shard range"},
		{0, total + 1, "exceeds"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.ShardStart, cfg.ShardEnd = tc.lo, tc.hi
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("range [%d,%d): unexpected error %v", tc.lo, tc.hi, err)
		case tc.want != "" && err == nil:
			t.Errorf("range [%d,%d): error missing (want %q)", tc.lo, tc.hi, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("range [%d,%d): error %q does not mention %q", tc.lo, tc.hi, err, tc.want)
		}
	}
}
