package ir

import "testing"

// buildSimple creates a function with an add whose result feeds a mul and
// a store.
func buildSimple() (*Func, *Instr, *Instr, *Instr) {
	f := NewFunc("f", Void, []*Type{I32, Ptr(I32)}, []string{"x", "p"})
	b := f.NewBlock("entry")
	bu := NewBuilder(b)
	add := bu.Add(f.Params[0], ConstInt(I32, 1), "add")
	mul := bu.Mul(add, add, "mul")
	st := bu.Store(mul, f.Params[1])
	bu.Ret(nil)
	return f, add, mul, st
}

func TestUseLists(t *testing.T) {
	_, add, mul, st := buildSimple()
	if add.NumUses() != 2 {
		t.Fatalf("add has %d uses, want 2 (both mul operands)", add.NumUses())
	}
	if mul.NumUses() != 1 {
		t.Fatalf("mul has %d uses, want 1 (store)", mul.NumUses())
	}
	uses := add.Uses()
	for _, u := range uses {
		if u.User != mul {
			t.Fatalf("unexpected user %v", u.User)
		}
	}
	if st.NumUses() != 0 {
		t.Fatal("store should have no uses")
	}
}

func TestSetOperandMaintainsUses(t *testing.T) {
	_, add, mul, _ := buildSimple()
	c := ConstInt(I32, 9)
	mul.SetOperand(0, c)
	if add.NumUses() != 1 {
		t.Fatalf("add should have 1 use after replacement, has %d", add.NumUses())
	}
	if mul.Operand(0) != Value(c) {
		t.Fatal("operand not replaced")
	}
}

func TestReplaceAllUsesWith(t *testing.T) {
	_, add, mul, st := buildSimple()
	c := ConstInt(I32, 7)
	add.ReplaceAllUsesWith(c)
	if add.NumUses() != 0 {
		t.Fatal("add still has uses")
	}
	if mul.Operand(0) != Value(c) || mul.Operand(1) != Value(c) {
		t.Fatal("mul operands not redirected")
	}
	_ = st
}

func TestParamUses(t *testing.T) {
	f, add, _, _ := buildSimple()
	x := f.Params[0]
	if len(x.Uses()) != 1 || x.Uses()[0].User != add {
		t.Fatal("param use tracking wrong")
	}
}

func TestInsertBeforeAfterRemove(t *testing.T) {
	f, add, mul, _ := buildSimple()
	b := f.Entry()

	sub := newInstr(OpSub, I32, "sub", add, ConstInt(I32, 2))
	b.InsertAfter(sub, add)
	if b.Instrs[1] != sub {
		t.Fatal("InsertAfter misplaced")
	}
	xor := newInstr(OpXor, I32, "xor", sub, sub)
	b.InsertBefore(xor, mul)
	idx := b.indexOf(mul)
	if b.Instrs[idx-1] != xor {
		t.Fatal("InsertBefore misplaced")
	}
	// Removing xor must drop its operand uses on sub.
	if sub.NumUses() != 2 {
		t.Fatalf("sub uses = %d, want 2", sub.NumUses())
	}
	b.Remove(xor)
	if sub.NumUses() != 0 {
		t.Fatal("Remove did not drop operand uses")
	}
	for _, in := range b.Instrs {
		if in == xor {
			t.Fatal("xor still in block")
		}
	}
}

func TestPositionedBuilders(t *testing.T) {
	f, add, mul, _ := buildSimple()
	b := f.Entry()

	bu := NewBuilderAfter(add)
	a1 := bu.Add(add, ConstInt(I32, 1), "a1")
	a2 := bu.Add(a1, ConstInt(I32, 2), "a2")
	// Emission order preserved: add, a1, a2, mul...
	if b.Instrs[1] != a1 || b.Instrs[2] != a2 {
		t.Fatalf("insert-after chain out of order: %v", b.Instrs)
	}

	bu2 := NewBuilderBefore(mul)
	p1 := bu2.Add(a2, ConstInt(I32, 3), "p1")
	idx := b.indexOf(mul)
	if b.Instrs[idx-1] != p1 {
		t.Fatal("insert-before misplaced")
	}
}

func TestBuilderAtAndIndexFrom(t *testing.T) {
	f, add, mul, st := buildSimple()
	b := f.Entry()

	// A builder placed at index 1 puts a chain between add and mul in
	// emission order.
	bu := NewBuilderAt(b, 1)
	a1 := bu.Add(add, ConstInt(I32, 1), "a1")
	a2 := bu.Add(a1, ConstInt(I32, 2), "a2")
	if got := b.Instrs[:4]; got[0] != add || got[1] != a1 || got[2] != a2 || got[3] != mul {
		t.Fatalf("chain built at index 1 out of order: %v", b.Instrs)
	}
	if a1.Parent != b || a2.Parent != b || a1.Slot() < 0 || a2.Slot() != a1.Slot()+1 {
		t.Fatal("a positioned builder must place each instruction in the block and slot it")
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	// IndexFrom finds an instruction from any hint, wrapping to the
	// block's start, and reports -1 for one not in the block.
	for _, hint := range []int{0, 3, len(b.Instrs), -1, len(b.Instrs) + 5} {
		if i := b.IndexFrom(a1, hint); i != 1 {
			t.Errorf("IndexFrom(a1, %d) = %d, want 1", hint, i)
		}
		if i := b.IndexFrom(st, hint); b.Instrs[i] != st {
			t.Errorf("IndexFrom(st, %d) = %d", hint, i)
		}
	}
	if i := b.IndexFrom(newInstr(OpAdd, I32, "stray"), 2); i != -1 {
		t.Errorf("IndexFrom of an instruction outside the block = %d, want -1", i)
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpBr.IsTerminator() || !OpRet.IsTerminator() || !OpCondBr.IsTerminator() {
		t.Error("terminator predicates wrong")
	}
	if OpAdd.IsTerminator() || OpCall.IsTerminator() {
		t.Error("non-terminators misclassified")
	}
	for _, op := range []Op{OpTrunc, OpZExt, OpSExt, OpFPExt, OpFPTrunc,
		OpSIToFP, OpFPToSI, OpBitcast, OpPtrToInt, OpIntToPtr} {
		if !op.IsCast() {
			t.Errorf("%s should be a cast", op)
		}
	}
	if OpAdd.IsCast() || OpLoad.IsCast() {
		t.Error("non-casts misclassified")
	}
}

func TestIsVectorInstr(t *testing.T) {
	f := NewFunc("g", Void, []*Type{Vec(I32, 4), I32}, []string{"v", "s"})
	b := f.NewBlock("entry")
	bu := NewBuilder(b)
	vadd := bu.Add(f.Params[0], f.Params[0], "vadd")
	sadd := bu.Add(f.Params[1], f.Params[1], "sadd")
	ext := bu.ExtractElement(vadd, ConstInt(I32, 0), "ext")
	bu.Ret(nil)
	if !vadd.IsVectorInstr() {
		t.Error("vector add not classified as vector instruction")
	}
	if sadd.IsVectorInstr() {
		t.Error("scalar add misclassified")
	}
	// extractelement has a vector operand, so it is a vector instruction
	// even though its result is scalar (paper definition).
	if !ext.IsVectorInstr() {
		t.Error("extractelement should be a vector instruction")
	}
}

func TestUniqueNames(t *testing.T) {
	f := NewFunc("h", Void, nil, nil)
	b := f.NewBlock("entry")
	bu := NewBuilder(b)
	a := bu.Add(ConstInt(I32, 1), ConstInt(I32, 2), "x")
	c := bu.Add(ConstInt(I32, 1), ConstInt(I32, 2), "x")
	if a.Nam != "x" || c.Nam == "x" {
		t.Errorf("name collision not resolved: %q vs %q", a.Nam, c.Nam)
	}
}
