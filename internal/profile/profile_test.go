package profile

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/obs"
)

// buildSum constructs the canonical scalar loop-sum test function:
// sum(a *i32, n i32) iterates n loads and adds.
func buildSum(m *ir.Module) *ir.Func {
	f := ir.NewFunc("sum", ir.I32, []*ir.Type{ir.Ptr(ir.I32), ir.I32},
		[]string{"a", "n"})
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	b := ir.NewBuilder(entry)
	b.Br(loop)

	b.SetBlock(loop)
	i := b.Phi(ir.I32, "i")
	s := b.Phi(ir.I32, "s")
	cond := b.ICmp(ir.IntSLT, i, f.Params[1], "cond")
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	p := b.GEP(f.Params[0], i, "p")
	v := b.Load(p, "v")
	s2 := b.Add(s, v, "s2")
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1), "i2")
	b.Br(loop)

	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(s, s2, body)

	b.SetBlock(exit)
	b.Ret(s)
	return f
}

// run executes sum(a, n) on a fresh interpreter with the probe attached
// and returns the interpreter for counter comparison.
func run(t *testing.T, probe *Probe, n int64) *interp.Interp {
	t.Helper()
	m := ir.NewModule("t")
	buildSum(m)
	it, err := interp.New(m, interp.Options{Observer: probe})
	if err != nil {
		t.Fatal(err)
	}
	addr, tr := it.Mem.Alloc(uint64(n) * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	if _, tr := it.Run("sum", interp.PtrValue(ir.Ptr(ir.I32), addr),
		interp.IntValue(ir.I32, n)); tr != nil {
		t.Fatal(tr)
	}
	return it
}

// TestProbeTotalEqualsDynInstrs is the acceptance criterion at its
// root: the probe hangs off the same account() call that increments
// DynInstrs, so their totals are structurally equal — phis, terminators
// and void instructions included.
func TestProbeTotalEqualsDynInstrs(t *testing.T) {
	probe := NewProbe()
	it := run(t, probe, 25)
	probe.Finish()
	if probe.Total() != it.DynInstrs {
		t.Fatalf("probe total %d, interpreter DynInstrs %d",
			probe.Total(), it.DynInstrs)
	}
	if probe.Total() == 0 {
		t.Fatal("probe counted nothing")
	}
}

// TestCollectorSnapshot checks the aggregate profile: totals, the
// trace.SiteKey spelling of hot sites, opcode-pair mining, and the
// deterministic ordering of every ranked table.
func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector()
	probe := c.Probe()
	it := run(t, probe, 10)
	want := it.DynInstrs
	c.Add("golden", probe)

	p := c.Snapshot(nil)
	if p.TotalDyn != want {
		t.Fatalf("TotalDyn = %d, want %d", p.TotalDyn, want)
	}
	if p.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", p.Runs)
	}
	var opSum uint64
	for _, o := range p.Ops {
		opSum += o.Count
	}
	if opSum != p.TotalDyn {
		t.Fatalf("op table sums to %d, want %d", opSum, p.TotalDyn)
	}
	for i := 1; i < len(p.Ops); i++ {
		if p.Ops[i].Count > p.Ops[i-1].Count {
			t.Fatalf("op table not ranked: %v before %v", p.Ops[i-1], p.Ops[i])
		}
	}
	if len(p.Sites) == 0 {
		t.Fatal("no hot sites")
	}
	for _, s := range p.Sites {
		if !strings.HasPrefix(s.Site, "@sum/") {
			t.Fatalf("site %q does not use the trace.SiteKey spelling", s.Site)
		}
	}
	if len(p.Pairs) == 0 {
		t.Fatal("no opcode pairs mined")
	}
	// Every accounted instruction except the first opens a digram.
	var pairSum uint64
	cc := NewCollector()
	p2 := cc.Probe()
	run(t, p2, 10)
	cc.Add("golden", p2)
	for _, pr := range cc.Snapshot(nil).Pairs {
		pairSum += pr.Count
	}
	if len(p.Pairs) < maxPairs && pairSum != want-1 {
		t.Fatalf("pair counts sum to %d, want %d", pairSum, want-1)
	}
	// A loop of 10 iterations must rank the loop-header comparison hot.
	if p.Sites[0].Count < 10 {
		t.Fatalf("hottest site count %d, want >= 10", p.Sites[0].Count)
	}
}

// TestCollectorDeterministicAcrossMergeOrder: the same probes merged in
// any order (as concurrent campaign workers would) produce identical
// count data.
func TestCollectorDeterministicAcrossMergeOrder(t *testing.T) {
	snapshot := func(order []int64) *Profile {
		c := NewCollector()
		var wg sync.WaitGroup
		for _, n := range order {
			wg.Add(1)
			go func(n int64) {
				defer wg.Done()
				probe := c.Probe()
				run(t, probe, n)
				c.Add("golden", probe)
			}(n)
		}
		wg.Wait()
		return c.Snapshot(nil)
	}
	a := snapshot([]int64{3, 7, 11, 2})
	b := snapshot([]int64{11, 2, 3, 7})
	if a.TotalDyn != b.TotalDyn {
		t.Fatalf("TotalDyn %d vs %d", a.TotalDyn, b.TotalDyn)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op tables differ: %d vs %d rows", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i].Op != b.Ops[i].Op || a.Ops[i].Count != b.Ops[i].Count {
			t.Fatalf("op row %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	for i := range a.Sites {
		if a.Sites[i].Site != b.Sites[i].Site || a.Sites[i].Count != b.Sites[i].Count {
			t.Fatalf("site row %d differs: %+v vs %+v", i, a.Sites[i], b.Sites[i])
		}
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair row %d differs: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

// TestWriteFolded: the folded output is one "frames value" line per
// stack, frames semicolon-separated, values summing to the profile
// total, no frame ever split by stray separators.
func TestWriteFolded(t *testing.T) {
	c := NewCollector()
	probe := c.Probe()
	run(t, probe, 10)
	c.Add("golden", probe)
	p := c.Snapshot(nil)

	var buf bytes.Buffer
	if err := WriteFolded(&buf, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty folded output")
	}
	var sum uint64
	for _, line := range lines {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		frames := strings.Split(line[:sp], ";")
		if len(frames) != 4 {
			t.Fatalf("want 4 frames (phase;func;block;instr), got %d in %q",
				len(frames), line)
		}
		if frames[0] != "golden" {
			t.Fatalf("root frame %q, want phase name", frames[0])
		}
		n, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("value in %q: %v", line, err)
		}
		sum += n
	}
	if sum != p.TotalDyn {
		t.Fatalf("folded values sum to %d, want %d", sum, p.TotalDyn)
	}
}

// TestFrameSanitizer: separators inside instruction text must never
// split a frame.
func TestFrameSanitizer(t *testing.T) {
	if got := frame("a;b\nc"); strings.ContainsAny(got, ";\n") {
		t.Fatalf("frame(%q) = %q still contains separators", "a;b\nc", got)
	}
	if got := frame(""); got != "?" {
		t.Fatalf("empty frame = %q, want ?", got)
	}
}

// TestWriteFlameHTML: the page is self-contained and carries the
// profile data inline.
func TestWriteFlameHTML(t *testing.T) {
	c := NewCollector()
	probe := c.Probe()
	run(t, probe, 10)
	c.Add("golden", probe)
	p := c.Snapshot(nil)

	var buf bytes.Buffer
	if err := p.WriteFlameHTML(&buf, "sum/TEST/unit"); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "sum/TEST/unit", `"total_dyn"`, `"stacks"`,
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("flame HTML missing %q", want)
		}
	}
	if strings.Contains(html, "src=") || strings.Contains(html, "href=") {
		t.Fatal("flame HTML references external assets")
	}
}

// TestTimeline: the profile reads its wall-time fields off the study's
// spans — phase walls sum the spans of each phase name, Experiments
// counts experiment spans, throughput divides by the timeline wall —
// and without a timeline they stay zero.
func TestTimeline(t *testing.T) {
	c := NewCollector()
	probe := c.Probe()
	run(t, probe, 10)
	c.Add("golden", probe)
	tl := &obs.Timeline{WallNS: int64(time.Second), Spans: []obs.Span{
		{Name: "study", DurNS: int64(time.Second)},
		{Name: "compile", DurNS: 300},
		{Name: "cache-fill", DurNS: 7},
	}}
	for i := 0; i < 50; i++ {
		tl.Spans = append(tl.Spans,
			obs.Span{Name: "experiment", DurNS: 100},
			obs.Span{Name: "golden", DurNS: 40},
			obs.Span{Name: "compare", DurNS: 2})
	}
	p := c.Snapshot(tl)
	if p.Experiments != 50 {
		t.Fatalf("Experiments = %d, want 50", p.Experiments)
	}
	if p.WallNS != tl.WallNS || p.ExpPerSec != 50 {
		t.Fatalf("WallNS = %d, ExpPerSec = %v; want %d, 50", p.WallNS, p.ExpPerSec, tl.WallNS)
	}
	want := []PhaseRow{
		{Phase: "compile", WallNS: 300},
		{Phase: "golden", WallNS: 50 * 40, Dyn: p.TotalDyn},
		{Phase: "compare", WallNS: 50 * 2},
	}
	if !reflect.DeepEqual(p.Phases, want) {
		t.Fatalf("phases = %+v, want %+v", p.Phases, want)
	}

	p = c.Snapshot(nil)
	if p.Experiments != 0 || p.WallNS != 0 || p.ExpPerSec != 0 {
		t.Fatalf("nil timeline: Experiments %d, WallNS %d, ExpPerSec %v; want zeros",
			p.Experiments, p.WallNS, p.ExpPerSec)
	}
	if len(p.Phases) != 1 || p.Phases[0].Phase != "golden" || p.Phases[0].WallNS != 0 {
		t.Fatalf("nil timeline phases = %+v, want one untimed golden row", p.Phases)
	}
}
