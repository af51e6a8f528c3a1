package passes_test

import (
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// checkSlices requires ForwardSlices to agree with the per-value
// ForwardSlice oracle on every parameter and instruction of f, and
// returns how many values it compared.
func checkSlices(t *testing.T, f *ir.Func) int {
	t.Helper()
	sl := passes.ForwardSlices(f)
	n := 0
	check := func(v ir.Value, what string) {
		t.Helper()
		if got, want := sl.Of(v), passes.ForwardSlice(v); got != want {
			t.Errorf("@%s %s: ForwardSlices %+v, ForwardSlice %+v", f.Nam, what, got, want)
		}
		n++
	}
	for _, p := range f.Params {
		check(p, p.Ident())
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			check(in, in.String())
		}
	}
	return n
}

// TestForwardSlicesMatchOracle checks the one-pass classification
// against ForwardSlice on every value of every benchmark function on
// every ISA.
func TestForwardSlicesMatchOracle(t *testing.T) {
	n := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			res, err := codegen.CompileSource(b.Source, target, b.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, target.Name, err)
			}
			for _, f := range res.Module.Funcs {
				if !f.IsDecl {
					n += checkSlices(t, f)
				}
			}
		}
	}
	t.Logf("%d values agree", n)
}

// wantFlags checks one value's flags from ForwardSlices.
func wantFlags(t *testing.T, sl *passes.FuncSlices, v ir.Value, control, address bool) {
	t.Helper()
	if got := sl.Of(v); got != (passes.SliceFlags{Control: control, Address: address}) {
		t.Errorf("%s: got %+v, want control=%t address=%t", v.Ident(), got, control, address)
	}
}

// TestForwardSlicesNestedLoops builds two nested counted loops whose
// inner body value reaches a getelementptr only through the outer
// loop's back edge, and its inner counter a branch only through the
// inner one:
//
//	for (i = 0; i < n; i = next) {
//	  for (j = 0; j < n; j++) { acc = acc + j }
//	  next = i + acc   // next feeds the address only via phi i
//	  a[i] = 0
//	}
func TestForwardSlicesNestedLoops(t *testing.T) {
	m := ir.NewModule("nested")
	f := ir.NewFunc("nested", ir.Void, []*ir.Type{ir.Ptr(ir.I32), ir.I32}, []string{"a", "n"})
	m.AddFunc(f)
	a, n := f.Params[0], f.Params[1]
	entry, outer, inner, innerBody, latch, exit :=
		f.NewBlock("entry"), f.NewBlock("outer"), f.NewBlock("inner"),
		f.NewBlock("inner.body"), f.NewBlock("latch"), f.NewBlock("exit")
	zero, one := ir.ConstInt(ir.I32, 0), ir.ConstInt(ir.I32, 1)

	bu := ir.NewBuilder(entry)
	bu.Br(outer)

	bu.SetBlock(outer)
	i := bu.Phi(ir.I32, "i")
	acc := bu.Phi(ir.I32, "acc")
	bu.CondBr(bu.ICmp(ir.IntSLT, i, n, "oc"), inner, exit)

	bu.SetBlock(inner)
	j := bu.Phi(ir.I32, "j")
	acc2 := bu.Phi(ir.I32, "acc2")
	bu.CondBr(bu.ICmp(ir.IntSLT, j, n, "ic"), innerBody, latch)

	bu.SetBlock(innerBody)
	acc3 := bu.Add(acc2, j, "acc3")
	j2 := bu.Add(j, one, "j2")
	bu.Br(inner)

	bu.SetBlock(latch)
	next := bu.Add(i, acc2, "next")
	p := bu.GEP(a, i, "p")
	bu.Store(zero, p)
	bu.Br(outer)

	bu.SetBlock(exit)
	bu.Ret(nil)

	ir.AddIncoming(i, zero, entry)
	ir.AddIncoming(i, next, latch)
	ir.AddIncoming(acc, zero, entry)
	ir.AddIncoming(acc, acc2, latch)
	ir.AddIncoming(j, zero, outer)
	ir.AddIncoming(j, j2, innerBody)
	ir.AddIncoming(acc2, acc, outer)
	ir.AddIncoming(acc2, acc3, innerBody)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	sl := passes.ForwardSlices(f)
	// next → phi i (outer back edge) → icmp/condbr and the gep.
	wantFlags(t, sl, next, true, true)
	// acc3 → phi acc2 (inner back edge) → next → phi i (outer back edge).
	wantFlags(t, sl, acc3, true, true)
	wantFlags(t, sl, acc, true, true)
	// j2 → phi j (inner back edge) → the inner condbr, and into acc3.
	wantFlags(t, sl, j2, true, true)
	wantFlags(t, sl, n, true, false)
	wantFlags(t, sl, a, false, true)
	checkSlices(t, f)
}

// TestForwardSlicesPhiCycle builds two phis that swap every iteration,
// so a value entering the cycle reaches the loop's condbr through the
// other phi and a back edge:
//
//	x, y = x0, y0; while (y < n) { x, y = y, x + 1 }
func TestForwardSlicesPhiCycle(t *testing.T) {
	m := ir.NewModule("cycle")
	f := ir.NewFunc("cycle", ir.Void, []*ir.Type{ir.I32, ir.I32, ir.I32}, []string{"x0", "y0", "n"})
	m.AddFunc(f)
	entry, loop, body, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("body"), f.NewBlock("exit")

	bu := ir.NewBuilder(entry)
	bu.Br(loop)
	bu.SetBlock(loop)
	x := bu.Phi(ir.I32, "x")
	y := bu.Phi(ir.I32, "y")
	bu.CondBr(bu.ICmp(ir.IntSLT, y, f.Params[2], "c"), body, exit)
	bu.SetBlock(body)
	x1 := bu.Add(x, ir.ConstInt(ir.I32, 1), "x1")
	bu.Br(loop)
	bu.SetBlock(exit)
	bu.Ret(nil)

	ir.AddIncoming(x, f.Params[0], entry)
	ir.AddIncoming(x, y, body)
	ir.AddIncoming(y, f.Params[1], entry)
	ir.AddIncoming(y, x1, body)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	sl := passes.ForwardSlices(f)
	// x0 → x → x1 → y (back edge) → condbr.
	wantFlags(t, sl, f.Params[0], true, false)
	wantFlags(t, sl, x, true, false)
	wantFlags(t, sl, x1, true, false)
	// y → x (back edge) → x1 → y: the cycle closes on itself.
	wantFlags(t, sl, y, true, false)
	checkSlices(t, f)
}

// TestForwardSlicesMaskedOperands carries a mask and a pointer around a
// loop's back edge into a masked load: the mask reaches the intrinsic's
// mask operand (control), the pointer its base operand (address), and
// neither passes through a branch or a getelementptr on the way.
func TestForwardSlicesMaskedOperands(t *testing.T) {
	m := ir.NewModule("masked")
	v8f, v8i, v8b := ir.Vec(ir.F32, 8), ir.Vec(ir.I32, 8), ir.Vec(ir.I1, 8)
	load := ir.NewDecl("llvm.x86.avx.maskload.ps.256", v8f, ir.Ptr(ir.F32), v8i)
	m.AddFunc(load)
	f := ir.NewFunc("masked", ir.Void,
		[]*ir.Type{ir.Ptr(ir.F32), v8b, v8b, ir.I1}, []string{"p", "m0", "keep", "go"})
	m.AddFunc(f)
	p, m0, keep, goOn := f.Params[0], f.Params[1], f.Params[2], f.Params[3]
	entry, loop, body, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("body"), f.NewBlock("exit")

	bu := ir.NewBuilder(entry)
	bu.Br(loop)
	bu.SetBlock(loop)
	mask := bu.Phi(v8b, "mask")
	ptr := bu.Phi(ir.Ptr(ir.F32), "ptr")
	wide := bu.Cast(ir.OpSExt, mask, v8i, "wide")
	bu.Call(load, "ld", ptr, wide)
	bu.CondBr(goOn, body, exit)
	bu.SetBlock(body)
	mask2 := bu.And(mask, keep, "mask2")
	addr := bu.Cast(ir.OpPtrToInt, ptr, ir.I64, "addr")
	addr2 := bu.Add(addr, ir.ConstInt(ir.I64, 32), "addr2")
	ptr2 := bu.Cast(ir.OpIntToPtr, addr2, ir.Ptr(ir.F32), "ptr2")
	bu.Br(loop)
	bu.SetBlock(exit)
	bu.Ret(nil)

	ir.AddIncoming(mask, m0, entry)
	ir.AddIncoming(mask, mask2, body)
	ir.AddIncoming(ptr, p, entry)
	ir.AddIncoming(ptr, ptr2, body)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	sl := passes.ForwardSlices(f)
	wantFlags(t, sl, mask2, true, false)
	wantFlags(t, sl, keep, true, false)
	wantFlags(t, sl, addr2, false, true)
	wantFlags(t, sl, ptr2, false, true)
	wantFlags(t, sl, goOn, true, false)
	checkSlices(t, f)
}
