package interp

import (
	"strings"
	"testing"

	"vulfi/internal/ir"
)

// buildStoreInc builds: define void @inc() — bumps @ctr[0] by one.
func buildStoreInc(m *ir.Module, ctr *ir.Global) {
	f := ir.NewFunc("inc", ir.Void, nil, nil)
	m.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	v := b.Load(ctr, "v")
	v2 := b.Add(v, ir.ConstInt(ir.I32, 1), "v2")
	b.Store(v2, ctr)
	b.Ret(nil)
}

func TestDumpStateDeterministic(t *testing.T) {
	build := func() *Interp {
		m := ir.NewModule("t")
		// Deliberately register globals out of lexical order.
		zg := &ir.Global{Nam: "zeta", Elem: ir.I32, Count: 4}
		ag := &ir.Global{Nam: "alpha", Elem: ir.I32, Count: 2}
		mg := &ir.Global{Nam: "mid", Elem: ir.I32, Count: 1}
		m.AddGlobal(zg)
		m.AddGlobal(ag)
		m.AddGlobal(mg)
		buildStoreInc(m, mg)
		if err := m.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		it, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, tr := it.Run("inc"); tr != nil {
				t.Fatalf("run: %v", tr)
			}
		}
		return it
	}
	a, b := build().DumpState(), build().DumpState()
	if a != b {
		t.Fatalf("DumpState not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
	// Globals must appear sorted by name, with contents.
	ia := strings.Index(a, "@alpha")
	im := strings.Index(a, "@mid")
	iz := strings.Index(a, "@zeta")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("globals not sorted by name in dump:\n%s", a)
	}
	// @mid holds 3 after three increments (little-endian hex contents).
	if !strings.Contains(a, "@mid i32 x1") {
		t.Fatalf("missing @mid descriptor in dump:\n%s", a)
	}
	if !strings.Contains(a, "= 03000000") {
		t.Fatalf("missing @mid contents 03000000 in dump:\n%s", a)
	}
}

func TestTrapProvenance(t *testing.T) {
	m := ir.NewModule("t")
	f := ir.NewFunc("div", ir.I32, []*ir.Type{ir.I32, ir.I32}, []string{"a", "b"})
	m.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	q := b.SDiv(f.Params[0], f.Params[1], "q")
	b.Ret(q)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	it, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tr := it.Run("div", IntValue(ir.I32, 1), IntValue(ir.I32, 0))
	if tr == nil || tr.Kind != TrapDivZero {
		t.Fatalf("trap = %v, want div-zero", tr)
	}
	if tr.Func != "div" || tr.Block != "entry" {
		t.Fatalf("trap provenance = %q/%q, want div/entry", tr.Func, tr.Block)
	}
	if !strings.Contains(tr.Instr, "%q = sdiv") {
		t.Fatalf("trap instr = %q, want the sdiv", tr.Instr)
	}
	if tr.Dyn == 0 {
		t.Fatalf("trap dyn index not stamped")
	}
	want := "@div/entry: " + tr.Instr
	if tr.At() != want {
		t.Fatalf("At() = %q, want %q", tr.At(), want)
	}
	// Error() stays free of provenance (stable message).
	if strings.Contains(tr.Error(), "entry") {
		t.Fatalf("Error() leaked provenance: %q", tr.Error())
	}
}

// collectRecorder is a test Observer that keeps every retirement.
type collectRecorder struct {
	instrs []*ir.Instr
	dyns   []uint64
}

func (c *collectRecorder) Account(*ir.Instr) {}

func (c *collectRecorder) Retire(in *ir.Instr, dyn uint64, v Value) {
	c.instrs = append(c.instrs, in)
	c.dyns = append(c.dyns, dyn)
}

func TestRecorderObservesRetirements(t *testing.T) {
	m := ir.NewModule("t")
	buildSum(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	rec := &collectRecorder{}
	it, err := New(m, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		addr, tr := it.Mem.Alloc(8 * 4)
		if tr != nil {
			t.Fatal(tr)
		}
		if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr), IntValue(ir.I32, 8)); tr != nil {
			t.Fatalf("run: %v", tr)
		}
	}
	run()
	if len(rec.instrs) == 0 {
		t.Fatal("recorder saw no retirements")
	}
	var sawPhi bool
	for i, in := range rec.instrs {
		switch in.Op {
		case ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpUnreachable:
			t.Fatalf("terminator %s retired through the recorder", in.Op)
		case ir.OpPhi:
			sawPhi = true
		}
		if i > 0 && rec.dyns[i] <= rec.dyns[i-1] {
			t.Fatalf("dyn indices not strictly increasing at %d: %d then %d",
				i, rec.dyns[i-1], rec.dyns[i])
		}
	}
	if !sawPhi {
		t.Fatal("phi retirements not recorded")
	}
	if max := rec.dyns[len(rec.dyns)-1]; max > it.DynInstrs {
		t.Fatalf("recorded dyn %d exceeds DynInstrs %d", max, it.DynInstrs)
	}

	// A reset without an observer stops recording.
	if tr := it.Reset(Options{}); tr != nil {
		t.Fatal(tr)
	}
	n := len(rec.instrs)
	run()
	if len(rec.instrs) != n {
		t.Fatal("recorder still attached after Reset(Options{})")
	}
}
