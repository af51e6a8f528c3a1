package profile

import (
	"testing"

	"vulfi/internal/obs"
)

// collect runs the sum workload once per entry of ns through one
// collector and returns its snapshot — the building block for the
// merge-of-split-equals-whole tests below.
func collect(t *testing.T, phase string, ns ...int64) *Profile {
	t.Helper()
	c := NewCollector()
	tl := &obs.Timeline{}
	for _, n := range ns {
		probe := c.Probe()
		run(t, probe, n)
		c.Add(phase, probe)
		tl.Spans = append(tl.Spans, obs.Span{Name: "experiment"})
	}
	return c.Snapshot(tl)
}

// countFieldsEqual compares every exactly-composing field of two
// profiles: totals, the op ranking's counts, the re-derived site
// ranking, the uncapped stacks, and the phase dynamic counts. Wall-time
// fields are deliberately excluded — they are approximate by contract.
func countFieldsEqual(t *testing.T, got, want *Profile) {
	t.Helper()
	if got.Runs != want.Runs {
		t.Errorf("Runs = %d, want %d", got.Runs, want.Runs)
	}
	if got.Experiments != want.Experiments {
		t.Errorf("Experiments = %d, want %d", got.Experiments, want.Experiments)
	}
	if got.TotalDyn != want.TotalDyn {
		t.Errorf("TotalDyn = %d, want %d", got.TotalDyn, want.TotalDyn)
	}
	if got.TotalVector != want.TotalVector {
		t.Errorf("TotalVector = %d, want %d", got.TotalVector, want.TotalVector)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("op table: %d rows, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Op != w.Op || g.Count != w.Count || g.Vector != w.Vector || g.CountPct != w.CountPct {
			t.Errorf("op row %d: %s count=%d vector=%d pct=%.2f, want %s count=%d vector=%d pct=%.2f",
				i, g.Op, g.Count, g.Vector, g.CountPct, w.Op, w.Count, w.Vector, w.CountPct)
		}
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("site table: %d rows, want %d", len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		g, w := got.Sites[i], want.Sites[i]
		if g.Site != w.Site || g.Count != w.Count {
			t.Errorf("site row %d: %s count=%d, want %s count=%d",
				i, g.Site, g.Count, w.Site, w.Count)
		}
	}
	if len(got.Stacks) != len(want.Stacks) {
		t.Fatalf("stack table: %d rows, want %d", len(got.Stacks), len(want.Stacks))
	}
	for i := range got.Stacks {
		g, w := got.Stacks[i], want.Stacks[i]
		if g.Phase != w.Phase || g.Func != w.Func || g.Block != w.Block ||
			g.Instr != w.Instr || g.Count != w.Count {
			t.Errorf("stack row %d: %+v counts differ from %+v", i, g, w)
		}
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("phase table: %d rows, want %d", len(got.Phases), len(want.Phases))
	}
	for i := range got.Phases {
		if got.Phases[i].Phase != want.Phases[i].Phase || got.Phases[i].Dyn != want.Phases[i].Dyn {
			t.Errorf("phase row %d: %s dyn=%d, want %s dyn=%d",
				i, got.Phases[i].Phase, got.Phases[i].Dyn,
				want.Phases[i].Phase, want.Phases[i].Dyn)
		}
	}
}

// TestMergeOfSplitEqualsWhole is the fleet-observatory acceptance
// invariant at unit scope: splitting a workload across shards and
// merging the shard profiles reproduces the single-node profile on
// every count field — per-opcode counts, vector tallies, hot sites,
// folded stacks, phase dyn totals, and the grand totals themselves.
func TestMergeOfSplitEqualsWhole(t *testing.T) {
	whole := collect(t, "golden", 3, 7, 11, 2)
	a := collect(t, "golden", 3, 7)
	b := collect(t, "golden", 11, 2)
	merged := Merge(a, b)
	if merged == nil {
		t.Fatal("merge of two parts returned nil")
	}
	countFieldsEqual(t, merged, whole)
}

// TestMergeOrderIndependent: shards harvest in coordinator-scheduling
// order, which is nondeterministic, so the merge must not care.
func TestMergeOrderIndependent(t *testing.T) {
	a := collect(t, "golden", 5)
	b := collect(t, "golden", 9, 2)
	c := collect(t, "faulty", 4)
	x, y := Merge(a, b, c), Merge(c, b, a)
	countFieldsEqual(t, x, y)
}

// TestMergeTotalsInvariant: the merged op table must still sum to the
// merged TotalDyn — the DynInstrs accounting identity every profile
// view is checked against, preserved because Merge sums both sides
// from the same rows.
func TestMergeTotalsInvariant(t *testing.T) {
	a, b := collect(t, "golden", 6), collect(t, "golden", 13, 1)
	m := Merge(a, b)
	var opSum, stackSum, siteSum uint64
	for _, o := range m.Ops {
		opSum += o.Count
	}
	for _, s := range m.Stacks {
		stackSum += s.Count
	}
	for _, s := range m.Sites {
		siteSum += s.Count
	}
	if opSum != m.TotalDyn {
		t.Errorf("op counts sum to %d, want TotalDyn %d", opSum, m.TotalDyn)
	}
	if stackSum != m.TotalDyn {
		t.Errorf("stack counts sum to %d, want TotalDyn %d", stackSum, m.TotalDyn)
	}
	// Sites are capped at maxSites; with one test function they are not,
	// so the identity holds here too.
	if len(m.Sites) < maxSites && siteSum != m.TotalDyn {
		t.Errorf("site counts sum to %d, want TotalDyn %d", siteSum, m.TotalDyn)
	}
}

// TestMergeNilHandling: nil parts are skipped (a shard whose worker
// died before observability harvest contributes nothing), and merging
// nothing yields nil rather than an empty profile.
func TestMergeNilHandling(t *testing.T) {
	if Merge() != nil {
		t.Error("Merge() != nil")
	}
	if Merge(nil, nil) != nil {
		t.Error("Merge(nil, nil) != nil")
	}
	p := collect(t, "golden", 4)
	m := Merge(nil, p, nil)
	if m == nil {
		t.Fatal("merge with nil padding returned nil")
	}
	countFieldsEqual(t, m, p)
}

// TestMergeDistinctPhases: a phase present on only one shard (e.g. a
// cache-fill that happened on shard 0 alone) survives the merge in
// canonical phase order.
func TestMergeDistinctPhases(t *testing.T) {
	m := Merge(collect(t, "golden", 3), collect(t, "faulty", 5))
	var names []string
	for _, ph := range m.Phases {
		names = append(names, ph.Phase)
	}
	if len(names) != 2 || names[0] != "golden" || names[1] != "faulty" {
		t.Fatalf("merged phases %v, want [golden faulty] (PhaseOrder)", names)
	}
	// Stacks group by phase in the same order.
	seenFaulty := false
	for _, s := range m.Stacks {
		if s.Phase == "faulty" {
			seenFaulty = true
		} else if seenFaulty {
			t.Fatalf("stack rows interleave phases: %q after faulty", s.Phase)
		}
	}
}
