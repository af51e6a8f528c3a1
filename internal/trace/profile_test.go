package trace

import (
	"testing"

	"vulfi/internal/telemetry"
)

// TestSummarize folds a study's worth of explanations of one static
// fault site, half of them diverged, with a nil entry (an experiment
// that reached no dynamic site) after each, and checks the summary and
// the metrics it publishes.
func TestSummarize(t *testing.T) {
	fx := buildDivergeFixture(t)
	const n = 400
	var exps []*Explanation
	for i := 0; i < n; i++ {
		g, f := NewRing(64), NewRing(64)
		g.Retire(fx.a, 1, v32(5))
		if i%2 == 0 {
			f.Retire(fx.a, 1, v32(uint64(6+i)))
		} else {
			f.Retire(fx.a, 1, v32(5))
		}
		g.Retire(fx.c, 2, v32(1))
		f.Retire(fx.c, 2, v32(1))
		e := Analyze(g, f)
		e.Outcome = "SDC"
		e.FaultSite = &SiteRef{SiteID: i % 8, Func: "f", Block: "entry",
			Instr: "%a = add i32 %x, 1"}
		if i%3 == 0 {
			e.NoteDetection(10)
		}
		exps = append(exps, e, nil)
	}
	reg := telemetry.NewRegistry()
	s := Summarize(reg, exps)
	if s.Traced != n {
		t.Fatalf("Traced = %d, want %d (nil entries skipped)", s.Traced, n)
	}
	if s.Diverged != n/2 {
		t.Fatalf("Diverged = %d, want %d", s.Diverged, n/2)
	}
	if len(s.Blame) != 1 {
		t.Fatalf("blame sites = %d, want 1 (same static site)", len(s.Blame))
	}
	if s.Blame[0].SDC != n {
		t.Fatalf("blame SDC = %d, want %d", s.Blame[0].SDC, n)
	}
	if got := reg.Counter("trace.experiments").Value(); got != n {
		t.Fatalf("trace.experiments = %d, want %d", got, n)
	}
	if got := reg.Histogram(HistDepth).Snapshot().Count; got != n/2 {
		t.Fatalf("%s observations = %d, want %d", HistDepth, got, n/2)
	}
}
