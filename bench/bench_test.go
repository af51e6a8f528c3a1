package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true}, // exactly ten beyond
		{100, 95, 0, false},
		{100, 99, 0, false},
		{15, 50, 0, false},
		{0, 50, 0, false},
	} {
		got, err := percentile(xs[:tc.n], tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v (ok=%v)", tc.p, tc.n, got, err, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping counted once", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to parent", []interval{{-5, 5}, {90, 120}}, 85},
		{"outside", []interval{{100, 200}}, 100},
		{"full cover", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(interval{0, 100}, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func tinyCell() campaign.Config {
	return campaign.Config{
		Benchmark: benchmarks.VectorCopy, ISA: isa.AVX, Category: passes.Control,
		Scale: benchmarks.ScaleTest, Experiments: 5, Campaigns: 2, Seed: 7, Workers: 1,
	}
}

func TestDigestEqualOnBothBackends(t *testing.T) {
	var digests []string
	for _, tc := range []struct {
		backend  string
		timeline bool
	}{{"vm", false}, {"tree", false}, {"vm", true}} {
		cfg := tinyCell()
		cfg.Backend, cfg.Timeline = tc.backend, tc.timeline
		cfg.Metrics = telemetry.NewRegistry()
		sr, err := campaign.RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := studyDigest(sr)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("digests differ across backend and timeline: %v", digests)
		}
	}
}

// tinyWorkload is one cell, one round: quick enough to check the
// correctness machinery end to end.
func tinyWorkload() *workload {
	return &workload{
		name: "tiny", other: "tree", tailP: 99, minRounds: 1, maxRounds: 1,
		cells: []cell{{"VectorCopy/AVX/control", tinyCell()}},
	}
}

func TestTamperedReferenceFailsTheRun(t *testing.T) {
	w := tinyWorkload()
	cfgs, err := w.plan(newStratifier(), defaultSeed, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgs[0]
	cfg.Backend, cfg.Metrics = "tree", telemetry.NewRegistry()
	sr, err := campaign.RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := studyDigest(sr)
	if err != nil {
		t.Fatal(err)
	}
	key := refKey(w.name, 0, w.cells[0].name)
	total := cfg.Experiments * cfg.Campaigns

	for _, tc := range []struct {
		digest string
		failed int
	}{{good, 0}, {strings.Repeat("0", 64), total}} {
		o := runOpts{
			seed: defaultSeed, seconds: 1, size: 1, outDir: t.TempDir(), log: io.Discard,
			ref: &reference{Seed: defaultSeed, Digests: map[string]string{key: tc.digest}},
		}
		res, err := runStudyWorkload(context.Background(), w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != tc.failed {
			t.Errorf("reference %.8s: %d failed, want %d (%v)", tc.digest, res.Failed, tc.failed, res.Problems)
		}
	}

	o := runOpts{
		seed: defaultSeed, seconds: 1, size: 1, outDir: t.TempDir(), log: io.Discard,
		ref: &reference{Seed: defaultSeed, Digests: map[string]string{key: strings.Repeat("0", 64)}},
	}
	var line strings.Builder
	if code := runOne(context.Background(), w, o, filepath.Join(o.outDir, "tiny.json"), &line, io.Discard); code == 0 {
		t.Fatal("tampered reference: exit code 0")
	}
	var dl resultLine
	if err := json.Unmarshal([]byte(line.String()), &dl); err != nil {
		t.Fatalf("result line %q: %v", line.String(), err)
	}
	if dl.Correct || dl.Failed == 0 || dl.Attempted == 0 {
		t.Fatalf("tampered reference: result line %+v", dl)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// A seed the reference does not cover: correctness rests on
			// the sampled cross-backend check.
			o := runOpts{seed: 7, seconds: 1, size: 0.02, ref: ref, outDir: t.TempDir(), log: io.Discard}
			res, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d/%d failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, d := range endToEnd {
				if _, ok := res.Values[d.Name]; !ok && d.Name != "latency_tail_ms" {
					t.Errorf("%s not measured", d.Name)
				}
			}
			// One small round is too few samples for a tail percentile;
			// the run must refuse it rather than report it.
			if len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "latency_tail_ms") {
				t.Errorf("problems = %v, want only the refused tail percentile", res.Problems)
			}
		})
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if hw := workloadByName(w.Name); hw == nil || hw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the harness disagree on it or its reason", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, harness %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	var maxBound float64
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if a, b := sortedDefs(tc.got), sortedDefs(tc.want); strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: BENCHMARK.json lists\n%s\nthe harness emits\n%s", tc.name, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}

func sortedDefs(ds []metricDef) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name+" "+d.Unit+" "+d.Better)
	}
	sort.Strings(out)
	return out
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	for _, tc := range []struct {
		name   string
		parent []float64
		change []float64
		higher bool
		want   string
	}{
		{"same", base, base, true, "unchanged"},
		{"faster", base, scale(1.2), true, "better"},
		{"slower beyond bound", base, scale(0.8), true, "worse"},
		{"slower within bound", base, scale(0.95), true, "unchanged"},
		{"lower is better", base, scale(0.8), false, "better"},
		{"spread wider than bound", noisy, noisy, true, "unresolved"},
	} {
		if got, _ := verdict(tc.parent, tc.change, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
