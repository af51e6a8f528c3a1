package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vulfi/internal/obs"
)

// spanStats folds study timelines into the campaign-layer metrics. All
// durations are sums in nanoseconds.
type spanStats struct {
	studies, exps                    int
	prepare, golden, faulty, compare float64
	expTotal, overhead, tail         float64
	goldenExec                       float64
	goldenExecN                      int
	hostInstrs                       float64
	spans                            int
}

// add folds one study timeline (a single study's, not a fleet merge).
func (st *spanStats) add(tl *obs.Timeline) {
	kids := map[string][]obs.Span{}
	var exps, fills []obs.Span
	var root *obs.Span
	for i := range tl.Spans {
		s := &tl.Spans[i]
		kids[s.Parent] = append(kids[s.Parent], *s)
		switch {
		case s.ID == tl.Root:
			root = s
		case s.Name == "experiment":
			exps = append(exps, *s)
		case s.Name == "cache-fill":
			fills = append(fills, *s)
		case s.Name == "compile":
			st.prepare += float64(s.DurNS)
		}
	}
	st.studies++
	st.exps += len(exps)
	st.spans += len(tl.Spans)
	var goldenDur, goldenDyn float64
	var lastEnd int64
	for _, e := range exps {
		span := interval{e.StartNS, e.StartNS + e.DurNS}
		var cover []interval
		for _, k := range kids[e.ID] {
			cover = append(cover, interval{k.StartNS, k.StartNS + k.DurNS})
			d := float64(k.DurNS)
			switch k.Name {
			case "golden":
				goldenDur += d
				goldenDyn += attrFloat(k, "dyn_instrs")
			case "faulty":
				st.faulty += d
				st.hostInstrs += attrFloat(k, "dyn_instrs")
			case "compare":
				st.compare += d
			}
		}
		st.expTotal += float64(e.DurNS)
		st.overhead += float64(selfTime(span, cover))
		lastEnd = max(lastEnd, span.hi)
	}
	st.golden += goldenDur
	if len(fills) > 0 {
		// A golden-cache cell executes a golden run only per fill; the
		// golden spans of its experiments are cache lookups.
		for _, f := range fills {
			st.goldenExec += float64(f.DurNS)
		}
		st.goldenExecN += len(fills)
		if len(exps) > 0 {
			st.hostInstrs += float64(len(fills)) * goldenDyn / float64(len(exps))
		}
	} else {
		st.goldenExec += goldenDur
		st.goldenExecN += len(exps)
		st.hostInstrs += goldenDyn
	}
	if root != nil && len(exps) > 0 {
		st.tail += float64(root.StartNS + root.DurNS - lastEnd)
	}
}

func attrFloat(s obs.Span, key string) float64 {
	v, _ := strconv.ParseFloat(s.Attrs[key], 64)
	return v
}

// timeMetrics sets the span-derived timing metrics.
func (st *spanStats) timeMetrics(r *result) {
	if st.exps == 0 || st.studies == 0 {
		return
	}
	n := float64(st.exps)
	r.set("campaign.prepare_ms", st.prepare/float64(st.studies)/1e6, st.studies)
	r.set("campaign.golden_ms", st.golden/n/1e6, st.exps)
	r.set("campaign.faulty_ms", st.faulty/n/1e6, st.exps)
	r.set("campaign.faulty_share", st.faulty/st.expTotal, st.exps)
	r.set("campaign.compare_us", st.compare/n/1e3, st.exps)
	r.set("campaign.overhead_us", st.overhead/n/1e3, st.exps)
	r.set("campaign.study_tail_ms", st.tail/float64(st.studies)/1e6, st.studies)
	if st.goldenExecN > 0 {
		r.set("campaign.golden_exec_ms", st.goldenExec/float64(st.goldenExecN)/1e6, st.goldenExecN)
	}
	r.set("campaign.cache_hit_ratio", 1-float64(st.goldenExecN)/n, st.exps)
}

// countMetrics sets the span-derived exact counts; they come from a
// fixed set of rounds so two runs of one seed agree exactly.
func (st *spanStats) countMetrics(r *result) {
	if st.exps == 0 {
		return
	}
	n := float64(st.exps)
	r.set("campaign.host_instrs_per_exp", st.hostInstrs/n, st.exps)
	r.set("obs.spans_per_exp", float64(st.spans)/n, st.exps)
}

// traceBuilder assembles the bench's own spans and the harvested study
// and fleet timelines into one timeline for Perfetto.
type traceBuilder struct {
	tl    obs.Timeline
	lanes map[string]int
	n     int64
}

func newTraceBuilder(workload string, epoch time.Time) *traceBuilder {
	tid := obs.DeriveTraceID("bench " + workload)
	return &traceBuilder{
		tl: obs.Timeline{
			TraceID: tid, Root: obs.DeriveSpanID(tid, "bench", 0), Start: epoch,
			Lanes: []string{"bench"},
		},
		lanes: map[string]int{"bench": 0},
	}
}

// span records one bench span on lane 0 and returns its ID. The
// builder's methods do nothing on a nil builder (untraced runs).
func (b *traceBuilder) span(name, parent string, start time.Time, dur time.Duration, attrs map[string]string) string {
	if b == nil {
		return ""
	}
	b.n++
	id := obs.DeriveSpanID(b.tl.TraceID, name, b.n)
	if parent == "" {
		parent = b.tl.Root
	}
	b.tl.Spans = append(b.tl.Spans, obs.Span{
		Name: name, ID: id, Parent: parent, Lane: 0,
		StartNS: start.Sub(b.tl.Start).Nanoseconds(), DurNS: dur.Nanoseconds(), Attrs: attrs,
	})
	return id
}

// graft re-anchors a harvested timeline onto the bench epoch, maps its
// lanes to "<group> <lane>" lanes, and parents its root under parent.
func (b *traceBuilder) graft(tl *obs.Timeline, parent, group string) {
	if b == nil {
		return
	}
	off := tl.Start.Sub(b.tl.Start).Nanoseconds()
	laneOf := make([]int, len(tl.Lanes))
	for i, name := range tl.Lanes {
		key := group + " " + name
		ix, ok := b.lanes[key]
		if !ok {
			ix = len(b.tl.Lanes)
			b.lanes[key] = ix
			b.tl.Lanes = append(b.tl.Lanes, key)
		}
		laneOf[i] = ix
	}
	for _, s := range tl.Spans {
		if s.Lane >= 0 && s.Lane < len(laneOf) {
			s.Lane = laneOf[s.Lane]
		}
		s.StartNS += off
		if s.Parent == "" || s.ID == tl.Root {
			s.Parent = parent
		}
		b.tl.Spans = append(b.tl.Spans, s)
	}
}

// write closes the root span and stores the trace-event JSON at path.
func (b *traceBuilder) write(path string, end time.Time) error {
	wall := end.Sub(b.tl.Start)
	b.tl.WallNS = wall.Nanoseconds()
	b.tl.Spans = append(b.tl.Spans, obs.Span{Name: "bench", ID: b.tl.Root, DurNS: wall.Nanoseconds()})
	sort.SliceStable(b.tl.Spans, func(i, j int) bool { return b.tl.Spans[i].StartNS < b.tl.Spans[j].StartNS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.tl.WriteTraceEvents(f); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}
