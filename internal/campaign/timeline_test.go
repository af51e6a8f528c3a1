package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/obs"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// tlCfg is a small timeline-traced study cell with an input pool (so
// cache-fill spans are exercised).
func tlCfg() Config {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Detectors = false
	cfg.Timeline = true
	cfg.Inputs = 4
	return cfg
}

// TestStudyTimelineStructure: the span tree must mirror the study's
// actual shape — one root, one compile span, one experiment span per
// index with golden children parented under it, and exactly one
// cache-fill span per pool seed.
func TestStudyTimelineStructure(t *testing.T) {
	cfg := tlCfg()
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := sr.Timeline
	if tl == nil {
		t.Fatal("Timeline on but StudyResult.Timeline nil")
	}
	if tl.TraceID == "" || tl.Root == "" || tl.Parent != "" {
		t.Fatalf("bad identity: trace=%q root=%q parent=%q",
			tl.TraceID, tl.Root, tl.Parent)
	}
	total := cfg.Campaigns * cfg.Experiments
	byName := map[string][]obs.Span{}
	byID := map[string]obs.Span{}
	for _, s := range tl.Spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	if n := len(byName["study"]); n != 1 {
		t.Fatalf("study spans = %d, want 1", n)
	}
	root := byName["study"][0]
	if root.ID != tl.Root || root.Parent != "" {
		t.Fatalf("root span %+v does not match timeline root %s", root, tl.Root)
	}
	if root.Attrs["benchmark"] != cfg.Benchmark.Name ||
		root.Attrs["backend"] != "tree" {
		t.Fatalf("root attrs = %v", root.Attrs)
	}
	if n := len(byName["compile"]); n != 1 {
		t.Fatalf("compile spans = %d, want 1", n)
	}
	if byName["compile"][0].Parent != tl.Root {
		t.Fatal("compile span not parented to root")
	}
	if n := len(byName["experiment"]); n != total {
		t.Fatalf("experiment spans = %d, want %d", n, total)
	}
	if n := len(byName["golden"]); n != total {
		t.Fatalf("golden spans = %d, want %d", n, total)
	}
	if n := len(byName["cache-fill"]); n != cfg.Inputs {
		t.Fatalf("cache-fill spans = %d, want one per pool seed (%d)",
			n, cfg.Inputs)
	}
	seenIdx := map[int]bool{}
	for _, s := range byName["experiment"] {
		if s.Parent != tl.Root {
			t.Fatalf("experiment %s parented to %q, want root", s.ID, s.Parent)
		}
		idx, err := strconv.Atoi(s.Attrs["index"])
		if err != nil || idx < 0 || idx >= total {
			t.Fatalf("experiment index attr %q", s.Attrs["index"])
		}
		seenIdx[idx] = true
		if want := strconv.FormatInt(cfg.ExperimentSeed(idx), 10); s.Attrs["seed"] != want {
			t.Fatalf("experiment %d seed attr %q, want %s", idx, s.Attrs["seed"], want)
		}
		if s.Attrs["outcome"] == "" {
			t.Fatalf("experiment %d has no outcome attr", idx)
		}
	}
	if len(seenIdx) != total {
		t.Fatalf("experiment spans cover %d distinct indices, want %d",
			len(seenIdx), total)
	}
	// Phase spans nest under their experiment.
	for _, name := range []string{"golden", "faulty", "compare"} {
		for _, s := range byName[name] {
			parent, ok := byID[s.Parent]
			if !ok || parent.Name != "experiment" {
				t.Fatalf("%s span %s: parent %q is not an experiment span",
					name, s.ID, s.Parent)
			}
		}
	}
	if len(byName["faulty"]) == 0 || len(byName["faulty"]) != len(byName["compare"]) {
		t.Fatalf("faulty spans = %d, compare spans = %d",
			len(byName["faulty"]), len(byName["compare"]))
	}
	// Span offsets sit inside the study window (compile precedes the
	// root span, which starts after Prepare).
	for _, s := range tl.Spans {
		if s.Name == "compile" {
			continue
		}
		if s.StartNS < 0 || s.StartNS > tl.WallNS+root.StartNS {
			t.Fatalf("span %s (%s) outside study window: start %d, wall %d",
				s.ID, s.Name, s.StartNS, tl.WallNS)
		}
	}
}

// TestStudyTimelineDeterministicAcrossWorkers: the canonical span tree
// (IDs, parents, names, attributes) is part of the deterministic result
// surface; only lanes and timestamps may vary with parallelism.
func TestStudyTimelineDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []obs.CanonicalSpan {
		cfg := tlCfg()
		cfg.Workers = workers
		sr, err := RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sr.Timeline.Canonical()
	}
	a, b := run(1), run(8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("worker count changed the canonical span tree:\n1: %s\n8: %s", aj, bj)
	}
}

// TestStudyTimelineOffByteIdentical: with Timeline unset the exported
// study JSON must not change at all — no timeline key, no residue.
func TestStudyTimelineOffByteIdentical(t *testing.T) {
	cfg := tlCfg()
	cfg.Timeline = false
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Timeline != nil {
		t.Fatal("Timeline off but StudyResult.Timeline set")
	}
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("timeline")) {
		t.Fatal("timeline-off study JSON mentions timeline")
	}

	// The traced run of the same cell differs only by the timeline key
	// (and the legitimately non-deterministic wall fields).
	sr2, err := RunStudy(context.Background(), tlCfg())
	if err != nil {
		t.Fatal(err)
	}
	sr2.Timeline = nil
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
		t.Fatalf("tracing changed non-timeline output:\noff: %s\non:  %s", aj, bj)
	}
}

// TestStudyTimelineResume: a resumed study's timeline spans only the
// freshly executed tail — replayed checkpoints never re-execute, so
// they record no spans.
func TestStudyTimelineResume(t *testing.T) {
	cfg := tlCfg()
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

	total := cfg.Campaigns * cfg.Experiments
	half := map[int]*ExperimentResult{}
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
		resumed.Totals.Benign != full.Totals.Benign {
		t.Fatalf("resumed outcome totals differ: %+v vs %+v",
			resumed.Totals, full.Totals)
	}
	var fresh []int
	for _, s := range resumed.Timeline.Spans {
		if s.Name != "experiment" {
			continue
		}
		idx, _ := strconv.Atoi(s.Attrs["index"])
		fresh = append(fresh, idx)
		if idx < total/2 {
			t.Fatalf("replayed experiment %d has a span — resume must trace the fresh tail only", idx)
		}
	}
	if len(fresh) != total-total/2 {
		t.Fatalf("resumed timeline has %d experiment spans, want %d",
			len(fresh), total-total/2)
	}
	// Trace identity is schedule-derived, so both halves share it.
	if resumed.Timeline.TraceID != full.Timeline.TraceID {
		t.Fatalf("resume changed trace ID: %s vs %s",
			resumed.Timeline.TraceID, full.Timeline.TraceID)
	}
}

// TestStudyTimelineTraceParent: a study given a traceparent adopts its
// trace ID and parents the root span under the remote span.
func TestStudyTimelineTraceParent(t *testing.T) {
	remoteTrace := obs.DeriveTraceID("client")
	remoteSpan := obs.DeriveSpanID(remoteTrace, "remote-study", 0)
	cfg := tlCfg()
	cfg.TraceParent = obs.FormatTraceparent(remoteTrace, remoteSpan)
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := sr.Timeline
	if tl.TraceID != remoteTrace {
		t.Fatalf("trace ID %s, want adopted %s", tl.TraceID, remoteTrace)
	}
	if tl.Parent != remoteSpan {
		t.Fatalf("timeline parent %q, want %s", tl.Parent, remoteSpan)
	}
	for _, s := range tl.Spans {
		if s.ID == tl.Root && s.Parent != remoteSpan {
			t.Fatalf("root span parent %q, want remote span %s", s.Parent, remoteSpan)
		}
	}
}

// TestValidateTraceParent: the single Validate gate rejects malformed
// traceparents everywhere at once.
func TestValidateTraceParent(t *testing.T) {
	cfg := tlCfg()
	cfg.TraceParent = "not-a-traceparent"
	if err := cfg.Validate(); err == nil {
		t.Fatal("malformed TraceParent accepted")
	}
	cfg.TraceParent = obs.FormatTraceparent(
		obs.DeriveTraceID("ok"), obs.DeriveSpanID(obs.DeriveTraceID("ok"), "s", 1))
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid TraceParent rejected: %v", err)
	}
}

// TestStudyHeartbeat: the worker pool pulses Config.Heartbeat from the
// executing interpreter on both backends.
func TestStudyHeartbeat(t *testing.T) {
	for _, backend := range []string{"tree", "vm"} {
		t.Run(backend, func(t *testing.T) {
			cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
			cfg.Backend = backend
			var beats atomic.Uint64
			cfg.Heartbeat = func(worker int) { beats.Add(1) }
			if _, err := RunStudy(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if beats.Load() == 0 {
				t.Fatalf("no heartbeats observed on backend %s", backend)
			}
		})
	}
}

// TestPhasesMeasuredOnce: every phase boundary takes one measurement
// that the registry histogram, the span and the profile all read, so
// the three agree to the nanosecond — histogram count and sum equal the
// span count and summed duration, and each profile phase wall equals
// its spans' sum.
func TestPhasesMeasuredOnce(t *testing.T) {
	cfg := tlCfg()
	cfg.Profile = true
	cfg.Metrics = telemetry.NewRegistry()
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]uint64{}
	sum := map[string]int64{}
	for _, s := range sr.Timeline.Spans {
		count[s.Name]++
		sum[s.Name] += s.DurNS
	}
	if count["faulty"] == 0 {
		t.Fatal("no faulty spans: the cell injected nothing")
	}
	hist := func(name string) telemetry.HistogramSnapshot {
		return cfg.Metrics.Histogram("campaign." + name).Snapshot()
	}
	for _, name := range []string{"golden", "faulty", "compare", "experiment"} {
		h := hist(name)
		if h.Count != count[name] || int64(h.Sum) != sum[name] {
			t.Errorf("campaign.%s observed %d totalling %d ns; spans %d totalling %d ns",
				name, h.Count, int64(h.Sum), count[name], sum[name])
		}
	}
	if h := hist("prepare"); h.Count != 1 || count["compile"] != 1 || int64(h.Sum) != sum["compile"] {
		t.Errorf("campaign.prepare observed %d totalling %d ns; compile spans %d totalling %d ns",
			h.Count, int64(h.Sum), count["compile"], sum["compile"])
	}
	p := sr.HotProfile
	if len(p.Phases) != 4 {
		t.Fatalf("profile phases %+v, want compile, golden, faulty, compare", p.Phases)
	}
	for _, ph := range p.Phases {
		if ph.WallNS != sum[ph.Phase] {
			t.Errorf("profile %s wall %d ns, spans total %d ns", ph.Phase, ph.WallNS, sum[ph.Phase])
		}
	}
	if p.Experiments != int(count["experiment"]) {
		t.Errorf("profile counts %d experiments, timeline %d", p.Experiments, count["experiment"])
	}
}

// TestSpanEventsContract: the spans carry what the -events stream
// promises. Each experiment span's attributes are exactly those its
// ExperimentResult implies (optional ones only when set), and the study
// root carries the qualified summary of the StudyResult.
func TestSpanEventsContract(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.Address)
	cfg.Trace = true
	cfg.Timeline = true
	var mu sync.Mutex
	results := map[int]*ExperimentResult{}
	cfg.OnResult = func(i int, _ int64, r *ExperimentResult) {
		mu.Lock()
		results[i] = r
		mu.Unlock()
	}
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Totals.Crash == 0 {
		t.Fatal("the cell never crashed, so the trap attributes went unchecked")
	}
	var root *obs.Span
	exps, traps, explained := 0, 0, 0
	for i := range sr.Timeline.Spans {
		s := &sr.Timeline.Spans[i]
		if s.ID == sr.Timeline.Root {
			root = s
		}
		if s.Name != "experiment" {
			continue
		}
		exps++
		idx, _ := strconv.Atoi(s.Attrs["index"])
		r := results[idx]
		if r == nil {
			t.Fatalf("experiment span %v has no OnResult result", s.Attrs)
		}
		want := map[string]string{
			"index":    strconv.Itoa(idx),
			"seed":     strconv.FormatInt(cfg.ExperimentSeed(idx), 10),
			"outcome":  r.Outcome.String(),
			"detected": strconv.FormatBool(r.Detected),
			"input":    r.InputLabel,
		}
		if r.DynSites > 0 {
			want["site"] = r.Record.String()
			want["dyn_sites"] = strconv.FormatUint(r.DynSites, 10)
		}
		if r.Hang {
			want["hang"] = "true"
		}
		if r.Trap != nil {
			traps++
			want["trap"] = r.Trap.Error()
			if at := r.Trap.At(); at != "" {
				want["trap_site"] = at
			}
		}
		if e := r.Explanation; e != nil {
			explained++
			want["slice_class"] = e.SliceClass()
			want["depth"] = strconv.Itoa(e.Depth)
		}
		if !reflect.DeepEqual(s.Attrs, want) {
			t.Errorf("experiment %d attrs\n got %v\nwant %v", idx, s.Attrs, want)
		}
	}
	if total := cfg.Campaigns * cfg.Experiments; exps != total || traps == 0 || explained != total {
		t.Fatalf("%d experiment spans (%d trapped, %d explained), want %d, some trapped, all explained",
			exps, traps, explained, total)
	}
	if root == nil {
		t.Fatal("timeline has no root span")
	}
	summary := map[string]string{
		"campaigns":       strconv.Itoa(cfg.Campaigns),
		"detectors":       "true",
		"static_sites":    strconv.Itoa(sr.StaticSites),
		"lane_sites":      strconv.Itoa(sr.LaneSites),
		"sdc":             strconv.Itoa(sr.Totals.SDC),
		"benign":          strconv.Itoa(sr.Totals.Benign),
		"crash":           strconv.Itoa(sr.Totals.Crash),
		"mean_sdc_rate":   strconv.FormatFloat(sr.MeanSDC, 'g', -1, 64),
		"margin_of_error": strconv.FormatFloat(sr.MarginOfError, 'g', -1, 64),
		"near_normal":     strconv.FormatBool(sr.NearNormal),
	}
	for k, v := range summary {
		if root.Attrs[k] != v {
			t.Errorf("root attr %s = %q, want %q", k, root.Attrs[k], v)
		}
	}
}
