package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/passes"
	"vulfi/internal/profile"
)

// profCfg is a small profiled study cell.
func profCfg() Config {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Detectors = false
	cfg.Profile = true
	return cfg
}

// stripProfileTimes zeroes every wall-clock field of a profile, leaving
// only the deterministic counts.
func stripProfileTimes(p *profile.Profile) {
	p.WallNS, p.ExpPerSec = 0, 0
	for i := range p.Ops {
		p.Ops[i].TimeNS, p.Ops[i].TimePct = 0, 0
	}
	for i := range p.Sites {
		p.Sites[i].TimeNS = 0
	}
	for i := range p.Phases {
		p.Phases[i].WallNS = 0
	}
	for i := range p.Stacks {
		p.Stacks[i].TimeNS = 0
	}
}

// TestStudyProfileTotals: the study's profile must account for exactly
// the instructions its interpreters retired — the golden phase total
// equals the sum of every fresh golden run's DynInstrs (the same
// counter the interpreter itself maintains), and every experiment marks
// the timeline.
func TestStudyProfileTotals(t *testing.T) {
	cfg := profCfg()
	var mu sync.Mutex
	var goldenDyn uint64
	cfg.OnResult = func(_ int, _ int64, r *ExperimentResult) {
		mu.Lock()
		goldenDyn += r.GoldenDynInstrs
		mu.Unlock()
	}
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sr.HotProfile
	if p == nil {
		t.Fatal("Profile on but HotProfile nil")
	}
	var phaseDyn uint64
	var golden uint64
	for _, ph := range p.Phases {
		phaseDyn += ph.Dyn
		if ph.Phase == "golden" {
			golden = ph.Dyn
		}
	}
	// No input pool: every experiment runs its golden half fresh, so the
	// profiled golden phase equals the summed interpreter counters.
	if golden != goldenDyn {
		t.Fatalf("golden phase dyn %d, interpreters counted %d", golden, goldenDyn)
	}
	if p.TotalDyn != phaseDyn {
		t.Fatalf("TotalDyn %d != phase sum %d", p.TotalDyn, phaseDyn)
	}
	var opSum uint64
	for _, o := range p.Ops {
		opSum += o.Count
	}
	if opSum != p.TotalDyn {
		t.Fatalf("op table sums to %d, want %d", opSum, p.TotalDyn)
	}
	total := cfg.Campaigns * cfg.Experiments
	if p.Experiments != total {
		t.Fatalf("Experiments = %d, want %d", p.Experiments, total)
	}
	if len(p.Sites) == 0 || len(p.Pairs) == 0 {
		t.Fatalf("profile names %d sites, %d pairs; want both non-empty",
			len(p.Sites), len(p.Pairs))
	}
}

// TestStudyProfileDeterministicAcrossWorkers: profile counts are part
// of the deterministic result surface — only wall-time fields may vary.
func TestStudyProfileDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *profile.Profile {
		cfg := profCfg()
		cfg.Workers = workers
		sr, err := RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		stripProfileTimes(sr.HotProfile)
		return sr.HotProfile
	}
	a, b := run(1), run(8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("worker count changed profile counts:\n1: %s\n8: %s", aj, bj)
	}
}

// TestStudyProfileOffByteIdentical: with Profile unset the exported
// study JSON must not change at all — no hot_profile key, no residue.
func TestStudyProfileOffByteIdentical(t *testing.T) {
	cfg := profCfg()
	cfg.Profile = false
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.HotProfile != nil {
		t.Fatal("Profile off but HotProfile set")
	}
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("hot_profile")) {
		t.Fatal("profiler-off study JSON mentions hot_profile")
	}

	// The profiled run of the same cell differs only by the hot_profile
	// key (and the legitimately non-deterministic wall fields).
	cfg2 := profCfg()
	sr2, err := RunStudy(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sr2.HotProfile = nil
	var buf2 bytes.Buffer
	if err := sr2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	var a, b map[string]any
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf2.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]any{a, b} {
		for k := range m {
			if len(k) > 4 && k[:4] == "wall" {
				delete(m, k)
			}
		}
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("profiling changed non-profile output:\noff: %s\non:  %s", aj, bj)
	}
}

// TestStudyProfileResume: a resumed profiled study produces the same
// statistics as an uninterrupted one, and its profile covers only the
// freshly executed tail (replayed checkpoints never re-execute).
func TestStudyProfileResume(t *testing.T) {
	cfg := profCfg()
	completed := map[int]*ExperimentResult{}
	icfg := cfg
	icfg.OnResult = func(i int, _ int64, r *ExperimentResult) {
		completed[i] = r
	}
	icfg.Workers = 1
	full, err := RunStudy(context.Background(), icfg)
	if err != nil {
		t.Fatal(err)
	}

	half := map[int]*ExperimentResult{}
	total := cfg.Campaigns * cfg.Experiments
	for i := 0; i < total/2; i++ {
		half[i] = completed[i]
	}
	rcfg := cfg
	rcfg.Completed = half
	rcfg.Workers = 1
	resumed, err := RunStudy(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Totals.SDC != full.Totals.SDC ||
		resumed.Totals.Benign != full.Totals.Benign ||
		resumed.Totals.Crash != full.Totals.Crash {
		t.Fatalf("resumed outcome totals differ: %+v vs %+v",
			resumed.Totals, full.Totals)
	}
	rp, fp := resumed.HotProfile, full.HotProfile
	if rp.Experiments != total-total/2 {
		t.Fatalf("resumed profile marks %d experiments, want %d (fresh tail only)",
			rp.Experiments, total-total/2)
	}
	if rp.TotalDyn == 0 || rp.TotalDyn >= fp.TotalDyn {
		t.Fatalf("resumed profile dyn %d, want in (0, %d)", rp.TotalDyn, fp.TotalDyn)
	}
}
