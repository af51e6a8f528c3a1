package interp

import (
	"testing"

	"vulfi/internal/ir"
)

// TestUseBeforeDefinitionTraps: a function whose uses are not dominated
// by their definitions, which ir.Verify rejects but a module nobody
// verified can still hold, reads an undefined value, and the
// tree-walker traps with the same kind, message and provenance whatever
// its frame held before. The flag
// argument of @late skips the block defining %v; calling it first with
// the flag set leaves a recycled frame whose slot of %v was written.
func TestUseBeforeDefinitionTraps(t *testing.T) {
	m := ir.NewModule("t")

	// @early: the use precedes the definition in one block.
	early := ir.NewFunc("early", ir.I32, nil, nil)
	m.AddFunc(early)
	bu := ir.NewBuilder(early.NewBlock("entry"))
	w := &ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Nam: "w"}
	early.Blocks[0].Append(w)
	v := bu.Add(ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2), "v")
	w.AddOperand(v)
	w.AddOperand(ir.ConstInt(ir.I32, 1))
	bu.Ret(w)

	// @late(flag): entry branches around the definition of %v.
	late := ir.NewFunc("late", ir.I32, []*ir.Type{ir.I1}, []string{"flag"})
	m.AddFunc(late)
	entry, def, use := late.NewBlock("entry"), late.NewBlock("def"), late.NewBlock("use")
	bu = ir.NewBuilder(entry)
	bu.CondBr(late.Params[0], def, use)
	bu.SetBlock(def)
	lv := bu.Add(ir.ConstInt(ir.I32, 3), ir.ConstInt(ir.I32, 4), "v")
	bu.Br(use)
	bu.SetBlock(use)
	lw := bu.Add(lv, ir.ConstInt(ir.I32, 1), "w")
	bu.Ret(lw)

	// @phi: a loop-header phi reads a value its entry edge never defined.
	phiF := ir.NewFunc("phi", ir.I32, nil, nil)
	m.AddFunc(phiF)
	pe, pl := phiF.NewBlock("entry"), phiF.NewBlock("loop")
	bu = ir.NewBuilder(pe)
	bu.Br(pl)
	bu.SetBlock(pl)
	p := bu.Phi(ir.I32, "p")
	next := bu.Add(p, ir.ConstInt(ir.I32, 1), "next")
	ir.AddIncoming(p, next, pe)
	bu.Ret(next)

	it, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r, tr := it.Run("late", BoolValue(true)); tr != nil || r.Int() != 8 {
		t.Fatalf("@late(true) = %v, %v; want 8", r, tr)
	}
	for _, c := range []struct {
		fn          string
		args        []Value
		block, inst string
		dyn         uint64
		name        string
	}{
		{"early", nil, "entry", "%w = add i32 %v, 1", 1, "v"},
		{"late", []Value{BoolValue(false)}, "use", "%w = add i32 %v, 1", 2, "v"},
		{"phi", nil, "loop", "%p = phi i32 [ %next, %entry ]", 1, "next"},
	} {
		it.DynInstrs = 0
		_, tr := it.Run(c.fn, c.args...)
		want := Trap{Kind: TrapHalt, Msg: "use of undefined value %" + c.name,
			Func: c.fn, Block: c.block, Instr: c.inst, Dyn: c.dyn}
		if tr == nil || *tr != want {
			t.Fatalf("@%s: trap %+v, want %+v", c.fn, tr, want)
		}
	}
}
