package ir

import (
	"fmt"
	"testing"
)

// checkSlots requires every instruction of every defined function of m
// to hold its own slot below the function's NumSlots.
func checkSlots(t *testing.T, m *Module) {
	t.Helper()
	for _, f := range m.Funcs {
		owner := map[int]*Instr{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				s := in.Slot()
				if s < 0 || s >= f.NumSlots() {
					t.Fatalf("@%s: %s has slot %d outside [0, %d)", f.Nam, in, s, f.NumSlots())
				}
				if o := owner[s]; o != nil {
					t.Fatalf("@%s: %s and %s share slot %d", f.Nam, o, in, s)
				}
				owner[s] = in
			}
		}
	}
}

// TestSlotsOnPlacement: each placement path hands out the function's
// next slot, and a removed instruction leaves a hole, never a reused
// slot.
func TestSlotsOnPlacement(t *testing.T) {
	m := validFunc()
	f := m.Func("f")
	if got := f.NumSlots(); got != len(f.Instrs()) {
		t.Fatalf("NumSlots = %d, want %d (one per placed instruction)", got, len(f.Instrs()))
	}
	checkSlots(t, m)

	var add *Instr
	for _, in := range f.Instrs() {
		if in.Op == OpAdd {
			add = in
		}
	}
	n := f.NumSlots()
	before := NewBuilderBefore(add).Mul(add.Operand(0), ConstInt(I32, 3), "before")
	after := NewBuilderAfter(add).Sub(add, ConstInt(I32, 1), "after")
	end := f.Blocks[2]
	appended := &Instr{Op: OpAdd, Ty: I32, Nam: "appended"}
	appended.AddOperand(ConstInt(I32, 1))
	appended.AddOperand(ConstInt(I32, 2))
	end.InsertBefore(appended, end.Terminator())
	for i, in := range []*Instr{before, after, appended} {
		if in.Slot() != n+i {
			t.Errorf("%s has slot %d, want %d", in, in.Slot(), n+i)
		}
	}
	if f.NumSlots() != n+3 {
		t.Fatalf("NumSlots = %d, want %d", f.NumSlots(), n+3)
	}
	checkSlots(t, m)

	// Remove leaves a hole; placing the instruction again takes a fresh
	// slot.
	old := appended.Slot()
	end.Remove(appended)
	if f.NumSlots() != n+3 {
		t.Fatalf("Remove changed NumSlots to %d", f.NumSlots())
	}
	end.InsertBefore(appended, end.Terminator())
	if appended.Slot() == old || appended.Slot() != n+3 {
		t.Fatalf("re-placed instruction has slot %d, want the fresh %d", appended.Slot(), n+3)
	}
	checkSlots(t, m)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotsFollowTheFunction: an instruction removed from one function
// and placed in another takes its slot from the new function's counter,
// and both functions still verify.
func TestSlotsFollowTheFunction(t *testing.T) {
	m := validFunc()
	f := m.Func("f")
	g := NewFunc("g", I32, []*Type{I32}, []string{"x"})
	m.AddFunc(g)
	gb := g.NewBlock("entry")
	bu := NewBuilder(gb)
	for i := 0; i < 5; i++ {
		bu.Add(g.Params[0], ConstInt(I32, int64(i)), "")
	}
	ret := bu.Ret(g.Params[0])

	// A dead instruction of f, moved to g.
	loop := f.Blocks[1]
	dead := NewBuilderBefore(loop.Terminator()).Mul(ConstInt(I32, 6), ConstInt(I32, 7), "dead")
	loop.Remove(dead)
	gb.InsertBefore(dead, ret)
	if dead.Slot() != 6 || g.NumSlots() != 7 {
		t.Fatalf("moved instruction has slot %d of %d, want 6 of 7", dead.Slot(), g.NumSlots())
	}
	checkSlots(t, m)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsBadSlots: a hand-built duplicate slot, a slot past
// NumSlots, an instruction placed twice and an operand defined in
// another function are each rejected.
func TestVerifyRejectsBadSlots(t *testing.T) {
	find := func(m *Module, name string) *Instr {
		for _, in := range m.Func("f").Instrs() {
			if in.Nam == name {
				return in
			}
		}
		t.Fatalf("no %%%s", name)
		return nil
	}

	m := validFunc()
	find(m, "c").slot = find(m, "i2").slot
	expectVerifyError(t, m, fmt.Sprintf("slot %d held twice", find(m, "i2").Slot()))

	m = validFunc()
	find(m, "c").slot = int32(m.Func("f").NumSlots()) + 1
	expectVerifyError(t, m, "outside [0, ")

	// Appending without removing puts one instruction in two places.
	m = validFunc()
	i2 := find(m, "i2")
	exit := m.Func("f").Blocks[2]
	exit.InsertBefore(i2, exit.Terminator())
	expectVerifyError(t, m, fmt.Sprintf("%%i2 = add i32 %%i, 1: slot %d held twice", i2.Slot()))

	// An operand defined in another function.
	m = validFunc()
	g := NewFunc("g", I32, nil, nil)
	m.AddFunc(g)
	gbu := NewBuilder(g.NewBlock("entry"))
	foreign := gbu.Add(ConstInt(I32, 1), ConstInt(I32, 2), "foreign")
	gbu.Ret(foreign)
	find(m, "c").SetOperand(1, foreign)
	expectVerifyError(t, m, "operand 1 %foreign is defined in @g")
}

// TestIsVectorInstrUnderRewrite: the counted vector operands follow
// SetOperand and ReplaceAllUsesWith both ways.
func TestIsVectorInstrUnderRewrite(t *testing.T) {
	v4 := Vec(I32, 4)
	f := NewFunc("g", Void, []*Type{v4, I32}, []string{"v", "s"})
	b := f.NewBlock("entry")
	bu := NewBuilder(b)
	vadd := bu.Add(f.Params[0], f.Params[0], "vadd")
	// A call whose only vector-typed value is an operand.
	sink := NewDecl("sink", I32, v4, I32)
	call := bu.Call(sink, "call", vadd, f.Params[1])
	bu.Ret(nil)
	if !call.IsVectorInstr() {
		t.Fatal("call with a vector argument not a vector instruction")
	}
	call.SetOperand(0, ConstZero(I32))
	if call.IsVectorInstr() {
		t.Fatal("call still a vector instruction after its vector operand was replaced")
	}
	call.SetOperand(1, vadd)
	if !call.IsVectorInstr() {
		t.Fatal("call not a vector instruction after a vector operand was set")
	}
	vadd.ReplaceAllUsesWith(ConstInt(I32, 0))
	if call.IsVectorInstr() {
		t.Fatal("ReplaceAllUsesWith left the vector operand counted")
	}
	ext := bu.ExtractElement(f.Params[0], ConstInt(I32, 0), "ext")
	if !ext.IsVectorInstr() {
		t.Fatal("extractelement not a vector instruction")
	}
}
