package interp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vulfi/internal/codegen"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/vm"
)

// backends returns a tree-walker and a vm interpreter over m.
func backends(t *testing.T, m *ir.Module) map[string]*interp.Interp {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	out := map[string]*interp.Interp{}
	for _, name := range []string{"tree", "vm"} {
		it, err := interp.New(m, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if name == "vm" {
			vm.Attach(it, vm.Compile(m))
		}
		out[name] = it
	}
	return out
}

// buildMutual builds @big(n, z) and @small(n, z), which call each other
// n deep. @big runs a chain of pad scalar steps and one broadcast (so
// it holds many more slots than @small), then divides by n - z, which
// traps when n reaches z, and adds @small(n-1, z) while n > 0. @small
// returns 1 at n <= 0 and 3·@big(n-1, z) + 1 otherwise. Each call's
// frame is recycled by the other function, at another size.
func buildMutual(pad int) *ir.Module {
	m := ir.NewModule("mutual")
	params := []*ir.Type{ir.I32, ir.I32}
	big := ir.NewFunc("big", ir.I32, params, []string{"n", "z"})
	small := ir.NewFunc("small", ir.I32, params, []string{"n", "z"})
	m.AddFunc(big)
	m.AddFunc(small)
	k := func(v int64) *ir.Const { return ir.ConstInt(ir.I32, v) }

	entry, rec, base := big.NewBlock("entry"), big.NewBlock("rec"), big.NewBlock("base")
	bu := ir.NewBuilder(entry)
	n, z := big.Params[0], big.Params[1]
	var acc ir.Value = n
	for i := 0; i < pad; i++ {
		acc = bu.Add(bu.Mul(acc, k(3), ""), k(int64(i)), "")
	}
	splat := bu.Broadcast(acc, 4, "splat")
	acc = bu.Add(acc, bu.ExtractElement(splat, k(3), ""), "")
	q := bu.SDiv(acc, bu.Sub(n, z, ""), "q")
	bu.CondBr(bu.ICmp(ir.IntSLE, n, k(0), ""), base, rec)
	bu.SetBlock(base)
	bu.Ret(q)
	bu.SetBlock(rec)
	r := bu.Call(small, "r", bu.Sub(n, k(1), ""), z)
	bu.Ret(bu.Add(q, r, ""))

	entry, rec, base = small.NewBlock("entry"), small.NewBlock("rec"), small.NewBlock("base")
	bu = ir.NewBuilder(entry)
	n, z = small.Params[0], small.Params[1]
	bu.CondBr(bu.ICmp(ir.IntSLE, n, k(0), ""), base, rec)
	bu.SetBlock(base)
	bu.Ret(k(1))
	bu.SetBlock(rec)
	r = bu.Call(big, "r", bu.Sub(n, k(1), ""), z)
	bu.Ret(bu.Add(bu.Mul(r, k(3), ""), k(1), ""))
	return m
}

// TestRecycledFramesAcrossSlotCounts: mutually recursive functions
// whose slot counts differ by two orders of magnitude share the
// interpreter's recycled frames. Runs that return, trap at some depth
// and return again give equal results, DynInstrs, DynVector and traps
// (provenance included) on the tree and the vm.
func TestRecycledFramesAcrossSlotCounts(t *testing.T) {
	m := buildMutual(200)
	if b, s := m.Func("big").NumSlots(), m.Func("small").NumSlots(); b < 40*s {
		t.Fatalf("@big has %d slots and @small %d: want very different sizes", b, s)
	}
	type result struct {
		val       int64
		trap      interp.Trap
		dyn, dvec uint64
	}
	runs := []struct{ fn, n, z int64 }{
		{0, 9, -100}, {1, 8, -100}, {0, 9, 5}, {1, 8, 3}, {0, 9, -100}, {1, 0, 0}, {1, 8, -100},
	}
	got := map[string][]result{}
	for name, it := range backends(t, m) {
		for _, r := range runs {
			it.DynInstrs, it.DynVector = 0, 0
			fn := []string{"big", "small"}[r.fn]
			v, tr := it.Run(fn, interp.IntValue(ir.I32, r.n), interp.IntValue(ir.I32, r.z))
			res := result{dyn: it.DynInstrs, dvec: it.DynVector}
			if tr != nil {
				res.trap = *tr
			} else {
				res.val = v.Int()
			}
			got[name] = append(got[name], res)
		}
	}
	traps := 0
	for i, r := range runs {
		tree, onVM := got["tree"][i], got["vm"][i]
		if tree != onVM {
			t.Errorf("run %d %+v:\ntree %+v\nvm   %+v", i, r, tree, onVM)
		}
		if tree.trap.Kind == interp.TrapDivZero && tree.trap.Func == "big" {
			traps++
		}
		if i > 0 && runs[i] == runs[0] && tree != got["tree"][0] {
			t.Errorf("run %d repeats run 0 but gave %+v, want %+v", i, tree, got["tree"][0])
		}
	}
	if traps != 2 {
		t.Fatalf("%d runs trapped dividing by zero in @big, want 2", traps)
	}
}

// TestReturnedConstantIsTheCallers: a value returned to Go code is the
// caller's to overwrite. Functions returning a vector constant, a
// scalar constant and a constant passed through an extern that returns
// its argument are each called twice through Interp.Run on each
// backend, with the first result overwritten in between.
func TestReturnedConstantIsTheCallers(t *testing.T) {
	v4 := ir.Vec(ir.I32, 4)
	vec := ir.ConstVec(v4, []uint64{1, 2, 3, 4})
	m := ir.NewModule("consts")
	ident := ir.NewDecl("ident", v4, v4)
	m.AddFunc(ident)
	for _, f := range []struct {
		name string
		ret  *ir.Type
		body func(bu *ir.Builder) ir.Value
	}{
		{"vec", v4, func(*ir.Builder) ir.Value { return vec }},
		{"scalar", ir.I32, func(*ir.Builder) ir.Value { return ir.ConstInt(ir.I32, 7) }},
		{"through", v4, func(bu *ir.Builder) ir.Value { return bu.Call(ident, "r", vec) }},
	} {
		fn := ir.NewFunc(f.name, f.ret, nil, nil)
		m.AddFunc(fn)
		bu := ir.NewBuilder(fn.NewBlock("entry"))
		bu.Ret(f.body(bu))
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"tree", "vm"} {
		it, err := interp.New(m, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if backend == "vm" {
			vm.Attach(it, vm.Compile(m))
		}
		it.RegisterExtern("ident", func(_ *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
			return args[0], nil
		})
		for _, name := range []string{"vec", "scalar", "through"} {
			first, tr := it.Run(name)
			if tr != nil {
				t.Fatalf("%s @%s: %v", backend, name, tr)
			}
			want := first.Clone()
			for i := range first.Bits {
				first.Bits[i] = 99
			}
			again, tr := it.Run(name)
			if tr != nil {
				t.Fatalf("%s @%s: %v", backend, name, tr)
			}
			if again.String() != want.String() {
				t.Errorf("%s @%s: second call returned %s after the first result was overwritten, want %s",
					backend, name, again, want)
			}
		}
		if vec.Bits[0] != 1 || vec.Bits[3] != 4 {
			t.Fatalf("%s: the IR constant changed to %v", backend, vec.Bits)
		}
	}
}

// TestExternTable: both backends read the callee's entry in the extern
// table at every call. An extern registered again between two runs of
// one instance takes effect on the next call. A declaration nothing
// implements traps "unresolved external" at the call, and so does a
// callee of another module, with the same provenance on both backends:
// the foreign declaration has the name and the number of a registered
// one, whose entry it must not read.
func TestExternTable(t *testing.T) {
	mod := ir.NewModule("externs")
	emit := ir.NewDecl("emit", ir.Void, ir.I32)
	missing := ir.NewDecl("missing", ir.Void, ir.I32)
	mod.AddFunc(emit)
	mod.AddFunc(missing)
	other := ir.NewModule("other")
	foreign := ir.NewDecl("emit", ir.Void, ir.I32)
	foreignBody := ir.NewFunc("body", ir.Void, []*ir.Type{ir.I32}, nil)
	other.AddFunc(foreign)
	other.AddFunc(foreignBody)
	ir.NewBuilder(foreignBody.NewBlock("entry")).Ret(nil)
	callers := []struct {
		name   string
		callee *ir.Func
	}{{"local", emit}, {"unregistered", missing}, {"foreign", foreign}, {"foreignBody", foreignBody}}
	for _, c := range callers {
		f := ir.NewFunc(c.name, ir.Void, nil, nil)
		mod.AddFunc(f)
		bu := ir.NewBuilder(f.NewBlock("entry"))
		bu.Call(c.callee, "", ir.ConstInt(ir.I32, 7))
		bu.Ret(nil)
	}
	emitAs := func(tag string) interp.ExternFn {
		return func(it *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
			fmt.Fprintf(&it.Output, "%s(%d)\n", tag, args[0].Int())
			return interp.Value{}, nil
		}
	}
	traps := map[string][]interp.Trap{}
	for _, backend := range []string{"tree", "vm"} {
		it, err := interp.New(mod, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if backend == "vm" {
			vm.Attach(it, vm.Compile(mod))
		}
		it.RegisterExtern("emit", emitAs("a"))
		for _, tag := range []string{"a", "b"} {
			if tag == "b" {
				it.RegisterExtern("emit", emitAs("b"))
			}
			if _, tr := it.Run("local"); tr != nil {
				t.Fatalf("%s: %v", backend, tr)
			}
		}
		if got, want := it.Output.String(), "a(7)\nb(7)\n"; got != want {
			t.Errorf("%s: output %q, want %q", backend, got, want)
		}
		for _, c := range callers[1:] {
			_, tr := it.Run(c.name)
			if tr == nil {
				t.Fatalf("%s @%s: no trap", backend, c.name)
			}
			want := fmt.Sprintf("unresolved external @%s", c.callee.Nam)
			if tr.Kind != interp.TrapHalt || tr.Msg != want || tr.Func != c.name || tr.Block != "entry" {
				t.Errorf("%s @%s: trap %+v, want %q at @%s/entry", backend, c.name, *tr, want, c.name)
			}
			traps[backend] = append(traps[backend], *tr)
		}
	}
	if !slices.Equal(traps["tree"], traps["vm"]) {
		t.Errorf("traps: tree %+v, vm %+v", traps["tree"], traps["vm"])
	}
}

// TestPrintVaryingDouble: print writes every lane of a varying double
// with the digits of a uniform one, on both backends. A flip below the
// fifth significant digit changes the output either way.
func TestPrintVaryingDouble(t *testing.T) {
	res, err := codegen.CompileSource(`
export void p() {
	uniform double u = 1.0/3.0;
	double v = 1.0/3.0;
	print(u);
	print(v);
}
`, isa.SSE, "print")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("0.333333343\n", 5)
	for _, backend := range []string{"tree", "vm"} {
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if backend == "vm" {
			vm.Attach(x.It, vm.Compile(res.Module))
		}
		if _, tr := x.CallExport("p"); tr != nil {
			t.Fatalf("%s: %v", backend, tr)
		}
		if got := x.It.Output.String(); got != want {
			t.Errorf("%s: output %q, want %q", backend, got, want)
		}
	}
}
