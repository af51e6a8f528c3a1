package ir

import (
	"strings"
	"testing"
)

// validFunc builds a small well-formed function: a counted loop.
func validFunc() *Module {
	m := NewModule("valid")
	f := NewFunc("f", I32, []*Type{I32}, []string{"n"})
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	bu := NewBuilder(entry)
	bu.Br(loop)
	bu.SetBlock(loop)
	i := bu.Phi(I32, "i")
	AddIncoming(i, ConstInt(I32, 0), entry)
	i2 := bu.Add(i, ConstInt(I32, 1), "i2")
	AddIncoming(i, i2, loop)
	c := bu.ICmp(IntSLT, i2, f.Params[0], "c")
	bu.CondBr(c, loop, exit)
	bu.SetBlock(exit)
	bu.Ret(i2)
	return m
}

func TestVerifyValid(t *testing.T) {
	if err := validFunc().Verify(); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

func expectVerifyError(t *testing.T, m *Module, frag string) {
	t.Helper()
	err := m.Verify()
	if err == nil {
		t.Fatalf("expected verifier error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func oneBlockFunc(m *Module) (*Func, *Builder) {
	f := NewFunc("f", Void, []*Type{I32, F32, Ptr(I32)}, []string{"x", "y", "p"})
	m.AddFunc(f)
	b := f.NewBlock("entry")
	return f, NewBuilder(b)
}

func TestVerifyUnterminatedBlock(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	bu.Add(f.Params[0], ConstInt(I32, 1), "a")
	expectVerifyError(t, m, "not terminated")
}

func TestVerifyBinaryTypeMismatch(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	// Hand-build a bad add: i32 + float.
	bad := newInstr(OpAdd, I32, "bad", f.Params[0], f.Params[1])
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "type mismatch")
}

func TestVerifyFloatOpOnInt(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	bad := newInstr(OpFAdd, I32, "bad", f.Params[0], f.Params[0])
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "float op on non-float")
}

func TestVerifyStoreTypeMismatch(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	bad := newInstr(OpStore, Void, "", f.Params[1], f.Params[2]) // float into i32*
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "store type mismatch")
}

func TestVerifyLoadTypeMismatch(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	bad := newInstr(OpLoad, F32, "bad", f.Params[2]) // i32* loaded as float
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "load type mismatch")
}

func TestVerifyCondBrNonBool(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	other := f.NewBlock("other")
	bad := newInstr(OpCondBr, Void, "", f.Params[0])
	bad.Succs = []*Block{other, other}
	bu.Block().Append(bad)
	NewBuilder(other).Ret(nil)
	expectVerifyError(t, m, "condition must be i1")
}

func TestVerifyPhiPredecessorMismatch(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", Void, nil, nil)
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	bu := NewBuilder(entry)
	bu.Br(next)
	bu.SetBlock(next)
	phi := bu.Phi(I32, "phi")
	// Incoming from a block that is not a predecessor.
	AddIncoming(phi, ConstInt(I32, 0), next)
	bu.Ret(nil)
	expectVerifyError(t, m, "phi")
}

func TestVerifyPhiAfterNonPhi(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", Void, nil, nil)
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	bu := NewBuilder(entry)
	bu.Br(next)
	bu.SetBlock(next)
	bu.Add(ConstInt(I32, 1), ConstInt(I32, 2), "a")
	phi := bu.Phi(I32, "phi")
	AddIncoming(phi, ConstInt(I32, 0), entry)
	bu.Ret(nil)
	expectVerifyError(t, m, "phi after non-phi")
}

// TestVerifyEntryPhi: the entry block has no predecessors, so a phi
// there has no incoming for the run's first block.
func TestVerifyEntryPhi(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", I32, nil, nil)
	m.AddFunc(f)
	bu := NewBuilder(f.NewBlock("entry"))
	bu.Ret(bu.Phi(I32, "p"))
	expectVerifyError(t, m, "phi in the entry block")
}

// TestVerifyForeignBlock: a successor or phi incoming must be a block
// of the function itself. The phi's case needs an edge taken twice, so
// that its incoming count still equals its block's predecessor count.
func TestVerifyForeignBlock(t *testing.T) {
	m := NewModule("t")
	g := NewFunc("g", I32, nil, nil)
	m.AddFunc(g)
	gEntry := g.NewBlock("entry")
	NewBuilder(gEntry).Ret(ConstInt(I32, 7))
	h := NewFunc("h", I32, nil, nil)
	m.AddFunc(h)
	NewBuilder(h.NewBlock("entry")).Br(gEntry)
	expectVerifyError(t, m, "@h/entry: br label %entry: block %entry is not in @h")

	f := NewFunc("f", I32, []*Type{I1}, []string{"c"})
	m = NewModule("t")
	m.AddFunc(f)
	entry, next := f.NewBlock("entry"), f.NewBlock("next")
	bu := NewBuilder(entry)
	bu.CondBr(f.Params[0], next, next)
	bu.SetBlock(next)
	phi := bu.Phi(I32, "p")
	AddIncoming(phi, ConstInt(I32, 0), entry)
	AddIncoming(phi, ConstInt(I32, 1), gEntry)
	bu.Ret(phi)
	expectVerifyError(t, m, "@f/next: %p = phi i32 [ 0, %entry ], [ 1, %entry ]: block %entry is not in @f")
}

func TestVerifyCallArgMismatch(t *testing.T) {
	m := NewModule("t")
	callee := NewDecl("g", Void, I32)
	m.AddFunc(callee)
	f, bu := oneBlockFunc(m)
	bad := newInstr(OpCall, Void, "", f.Params[1]) // float arg for i32 param
	bad.Callee = callee
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "call arg")
}

// TestVerifyFunctionNumbers: interpreters index their per-function
// tables by Func.Num, so Verify rejects a function whose number is not
// its index in Funcs, and a call to another module's function, whose
// number would name an entry of this module's.
func TestVerifyFunctionNumbers(t *testing.T) {
	m := validFunc()
	g := NewFunc("g", Void, nil, nil)
	m.AddFunc(g)
	NewBuilder(g.NewBlock("entry")).Ret(nil)
	m.Funcs[0], m.Funcs[1] = m.Funcs[1], m.Funcs[0]
	expectVerifyError(t, m, "@g: numbered 1 at index 0")

	other := NewModule("other")
	foreign := NewDecl("g", Void, I32)
	other.AddFunc(foreign)
	m = NewModule("t")
	m.AddFunc(NewDecl("g", Void, I32))
	f, bu := oneBlockFunc(m)
	bu.Call(foreign, "", f.Params[0])
	bu.Ret(nil)
	expectVerifyError(t, m, "callee @g is not in the module")
}

func TestVerifyRetMismatch(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", I32, nil, nil)
	m.AddFunc(f)
	bu := NewBuilder(f.NewBlock("entry"))
	bad := newInstr(OpRet, Void, "", ConstFloat(F32, 1))
	bu.Block().Append(bad)
	expectVerifyError(t, m, "ret type mismatch")
}

func TestVerifyTerminatorInMiddle(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", Void, nil, nil)
	m.AddFunc(f)
	b := f.NewBlock("entry")
	bu := NewBuilder(b)
	bu.Ret(nil)
	bu.Ret(nil)
	expectVerifyError(t, m, "terminator in the middle")
}

func TestVerifyShuffleMaskRange(t *testing.T) {
	m := NewModule("t")
	f := NewFunc("f", Void, []*Type{Vec(I32, 4)}, []string{"v"})
	m.AddFunc(f)
	bu := NewBuilder(f.NewBlock("entry"))
	bad := newInstr(OpShuffleVector, Vec(I32, 4), "bad", f.Params[0], f.Params[0])
	bad.ShuffleMask = []int{0, 1, 2, 9} // 9 out of range for 2x4 lanes
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "out of range")
}

func TestVerifyCasts(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	bad := newInstr(OpTrunc, I64, "bad", f.Params[0]) // trunc i32 -> i64
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "invalid trunc")
}

func TestVerifySelectArmMismatch(t *testing.T) {
	m := NewModule("t")
	f, bu := oneBlockFunc(m)
	cond := bu.ICmp(IntEQ, f.Params[0], f.Params[0], "c")
	bad := newInstr(OpSelect, I32, "bad", cond, f.Params[0], f.Params[1])
	bu.Block().Append(bad)
	bu.Ret(nil)
	expectVerifyError(t, m, "select")
}

// TestVerifyDominance: a use its definition does not dominate is
// rejected, with an error naming the use, its block and the
// definition's block — in one block (@early), across a branch that
// skips the definition (@late), and along a phi's incoming edge (@phi).
func TestVerifyDominance(t *testing.T) {
	// @early: the use precedes the definition in one block.
	m := NewModule("early")
	early := NewFunc("early", I32, nil, nil)
	m.AddFunc(early)
	bu := NewBuilder(early.NewBlock("entry"))
	w := &Instr{Op: OpAdd, Ty: I32, Nam: "w"}
	early.Blocks[0].Append(w)
	v := bu.Add(ConstInt(I32, 1), ConstInt(I32, 2), "v")
	w.AddOperand(v)
	w.AddOperand(ConstInt(I32, 1))
	bu.Ret(w)
	expectVerifyError(t, m,
		"@early/entry: %w = add i32 %v, 1: operand %v is used before its definition in %entry")

	// @late(flag): entry branches around the definition of %v.
	m = NewModule("late")
	late := NewFunc("late", I32, []*Type{I1}, []string{"flag"})
	m.AddFunc(late)
	entry, def, use := late.NewBlock("entry"), late.NewBlock("def"), late.NewBlock("use")
	bu = NewBuilder(entry)
	bu.CondBr(late.Params[0], def, use)
	bu.SetBlock(def)
	lv := bu.Add(ConstInt(I32, 3), ConstInt(I32, 4), "v")
	bu.Br(use)
	bu.SetBlock(use)
	bu.Ret(bu.Add(lv, ConstInt(I32, 1), "w"))
	expectVerifyError(t, m,
		"@late/use: %w = add i32 %v, 1: operand %v is not dominated by its definition in %def")

	// @phi: a loop-header phi reads a value its entry edge never defined.
	m = NewModule("phi")
	phiF := NewFunc("phi", I32, nil, nil)
	m.AddFunc(phiF)
	pe, pl := phiF.NewBlock("entry"), phiF.NewBlock("loop")
	bu = NewBuilder(pe)
	bu.Br(pl)
	bu.SetBlock(pl)
	p := bu.Phi(I32, "p")
	next := bu.Add(p, ConstInt(I32, 1), "next")
	AddIncoming(p, next, pe)
	bu.Ret(next)
	expectVerifyError(t, m,
		"@phi/loop: %p = phi i32 [ %next, %entry ]: incoming %next from %entry is not dominated by its definition in %loop")
}
