package trace

import (
	"encoding/json"
	"testing"

	"vulfi/internal/ir"
	"vulfi/internal/passes"
)

// divergeFixture builds a function whose instructions exercise every
// dynamic classification path:
//
//	%a   = add i32 %x, 1          ; pure data
//	%c   = icmp slt i32 %a, 10    ; feeds the condbr (control use)
//	%p   = gep i32* %buf, %a      ; %a also feeds an address use
//	store i32 %a, i32* %p
//	condbr %c, then, done
type divergeFixture struct {
	a, c, p, st *ir.Instr
}

func buildDivergeFixture(t *testing.T) *divergeFixture {
	t.Helper()
	m := ir.NewModule("t")
	f := ir.NewFunc("f", ir.Void, []*ir.Type{ir.I32, ir.Ptr(ir.I32)},
		[]string{"x", "buf"})
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	done := f.NewBlock("done")

	b := ir.NewBuilder(entry)
	a := b.Add(f.Params[0], ir.ConstInt(ir.I32, 1), "a")
	c := b.ICmp(ir.IntSLT, a, ir.ConstInt(ir.I32, 10), "c")
	p := b.GEP(f.Params[1], a, "p")
	st := b.Store(a, p)
	b.CondBr(c, then, done)
	ir.NewBuilder(then).Br(done)
	ir.NewBuilder(done).Ret(nil)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return &divergeFixture{a: a, c: c, p: p, st: st}
}

func TestAnalyzeIdentical(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	for _, r := range []*Ring{g, f} {
		r.Retire(fx.a, 1, v32(5))
		r.Retire(fx.c, 2, v32(1))
	}
	e := Analyze(g, f)
	if e.Diverged || e.Depth != 0 || e.First != nil || e.ControlDivergence {
		t.Fatalf("identical rings produced divergence: %+v", e)
	}
	if e.SliceClass() != "data" {
		t.Fatalf("SliceClass = %q, want data", e.SliceClass())
	}
}

func TestAnalyzeValueDivergence(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(5))
	f.Retire(fx.a, 1, v32(7)) // corrupted: %a feeds condbr (via %c), gep, store
	g.Retire(fx.c, 2, v32(1))
	f.Retire(fx.c, 2, v32(1)) // compare result happens to match
	e := Analyze(g, f)
	if !e.Diverged || e.First == nil {
		t.Fatalf("no divergence found: %+v", e)
	}
	if e.First.Dyn != 1 || e.First.Func != "f" || e.First.Block != "entry" {
		t.Fatalf("First = %+v, want dyn 1 at f/entry", e.First)
	}
	if len(e.FirstLanes) != 1 || e.FirstLanes[0] != 0 {
		t.Fatalf("FirstLanes = %v, want [0]", e.FirstLanes)
	}
	if e.Depth != 1 || e.MaxLaneSpread != 1 {
		t.Fatalf("depth=%d spread=%d, want 1/1", e.Depth, e.MaxLaneSpread)
	}
	// %a is used by the gep (address) and by the store value operand
	// (not address); its icmp use carries no flag, so control stays off.
	if !e.CrossedAddress {
		t.Fatal("gep use of corrupted a-value must set CrossedAddress")
	}
	if e.CrossedControl {
		t.Fatal("no control use of the a-value itself; CrossedControl must stay off")
	}
	if e.SliceClass() != "address" {
		t.Fatalf("SliceClass = %q, want address", e.SliceClass())
	}
	if len(e.Chain) != 1 || e.Chain[0].Golden == e.Chain[0].Faulty {
		t.Fatalf("chain = %+v", e.Chain)
	}
}

func TestAnalyzeControlUse(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(5))
	f.Retire(fx.a, 1, v32(5))
	g.Retire(fx.c, 2, v32(1))
	f.Retire(fx.c, 2, v32(0)) // corrupted compare feeds the condbr
	e := Analyze(g, f)
	if !e.CrossedControl {
		t.Fatal("condbr use of corrupted compare must set CrossedControl")
	}
	if e.SliceClass() != "control" {
		t.Fatalf("SliceClass = %q, want control", e.SliceClass())
	}
}

// TestAnalyzeSelectConditionUse: a corrupted select condition steers
// lane selection, so the dynamic classification counts it as control
// even though the static slicer does not.
func TestAnalyzeSelectConditionUse(t *testing.T) {
	m := ir.NewModule("t")
	fn := ir.NewFunc("g", ir.I32, []*ir.Type{ir.I32}, []string{"x"})
	m.AddFunc(fn)
	b := ir.NewBuilder(fn.NewBlock("entry"))
	c := b.ICmp(ir.IntSLT, fn.Params[0], ir.ConstInt(ir.I32, 10), "c")
	b.Ret(b.Select(c, fn.Params[0], ir.ConstInt(ir.I32, 1), "s"))
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if passes.ForwardSlice(c).Control {
		t.Fatal("static slice of the select condition reached control")
	}
	g, f := NewRing(0), NewRing(0)
	g.Retire(c, 1, v32(1))
	f.Retire(c, 1, v32(0))
	if e := Analyze(g, f); !e.CrossedControl || e.CrossedAddress {
		t.Fatalf("control=%v address=%v, want control only", e.CrossedControl, e.CrossedAddress)
	}
}

func TestAnalyzeVectorLaneSpread(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(1, 2, 3, 4))
	f.Retire(fx.a, 1, v32(1, 9, 3, 8))
	e := Analyze(g, f)
	if e.MaxLaneSpread != 2 {
		t.Fatalf("MaxLaneSpread = %d, want 2", e.MaxLaneSpread)
	}
	if len(e.FirstLanes) != 2 || e.FirstLanes[0] != 1 || e.FirstLanes[1] != 3 {
		t.Fatalf("FirstLanes = %v, want [1 3]", e.FirstLanes)
	}
}

func TestAnalyzeControlDivergence(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(5))
	f.Retire(fx.a, 1, v32(5))
	g.Retire(fx.c, 2, v32(1))
	f.Retire(fx.p, 2, v32(64)) // different instruction stream from here
	g.Retire(fx.p, 3, v32(64))
	f.Retire(fx.c, 3, v32(1))
	e := Analyze(g, f)
	if !e.ControlDivergence || !e.Diverged {
		t.Fatalf("instruction-stream mismatch not flagged: %+v", e)
	}
	if e.ControlDivergedAt == nil || e.ControlDivergedAt.Dyn != 2 {
		t.Fatalf("ControlDivergedAt = %+v, want dyn 2", e.ControlDivergedAt)
	}
	if e.First == nil {
		t.Fatal("First must fall back to the control divergence point")
	}
	if e.PostDivergence != 2 {
		t.Fatalf("PostDivergence = %d, want 2", e.PostDivergence)
	}
	if e.SliceClass() != "control" {
		t.Fatalf("SliceClass = %q, want control", e.SliceClass())
	}
}

func TestAnalyzeEarlyTermination(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(5))
	g.Retire(fx.c, 2, v32(1))
	f.Retire(fx.a, 1, v32(5)) // faulty run crashed after one instruction
	e := Analyze(g, f)
	if !e.ControlDivergence {
		t.Fatal("early faulty termination must count as control divergence")
	}
	if e.GoldenRetired != 2 || e.FaultyRetired != 1 {
		t.Fatalf("retired = %d/%d, want 2/1", e.GoldenRetired, e.FaultyRetired)
	}
}

func TestAnalyzeTruncated(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(2), NewRing(2)
	for i := 0; i < 5; i++ {
		g.Retire(fx.a, uint64(i+1), v32(uint64(i)))
		f.Retire(fx.a, uint64(i+1), v32(uint64(i)))
	}
	if e := Analyze(g, f); !e.Truncated {
		t.Fatal("dropped entries must mark the explanation truncated")
	}
}

func TestNoteDetection(t *testing.T) {
	e := &Explanation{TimeToDetection: -1,
		First: &InstrRef{Dyn: 100}, Diverged: true}
	e.NoteDetection(140)
	if e.TimeToDetection != 40 || e.DetectionDyn != 140 {
		t.Fatalf("ttd=%d dyn=%d, want 40/140", e.TimeToDetection, e.DetectionDyn)
	}
}

func TestExplanationJSONRoundTrip(t *testing.T) {
	fx := buildDivergeFixture(t)
	g, f := NewRing(0), NewRing(0)
	g.Retire(fx.a, 1, v32(5))
	f.Retire(fx.a, 1, v32(7))
	e := Analyze(g, f)
	e.Outcome = "SDC"
	e.FaultSite = &SiteRef{SiteID: 3, Lane: 1, Func: "f", Block: "entry",
		Instr: "%a = add i32 %x, 1", Category: "pure-data"}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Explanation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Outcome != "SDC" || back.First == nil ||
		back.First.Dyn != e.First.Dyn || back.FaultSite.SiteID != 3 ||
		back.Depth != e.Depth {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
