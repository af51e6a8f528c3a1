package core

import (
	"strings"
	"testing"

	"vulfi/internal/codegen"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// TestFigure5Shape instruments a masked vector load/store pair and checks
// the rewrite matches the paper's Figure 5: per-lane extractelement,
// extractelement of the mask, injectFault call, insertelement, and the
// masked store consuming the instrumented clone.
func TestFigure5Shape(t *testing.T) {
	res := compileVCopy(t)
	f := res.Module.Func("vcopy")
	sites := EnumerateSites(res.Module, nil)

	// Pick the masked-load L-value site from the partial body.
	var maskedLoad *Site
	for _, s := range sites {
		if s.MaskOperand >= 0 && s.ValueOperand < 0 {
			maskedLoad = s
		}
	}
	if maskedLoad == nil {
		t.Fatal("no masked load site")
	}
	inst, err := Instrument(res.Module, []*Site{maskedLoad})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.LaneSites) != 8 {
		t.Fatalf("masked vector site expanded to %d lane sites, want 8",
			len(inst.LaneSites))
	}
	if err := res.Module.Verify(); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
	text := f.String()
	for _, frag := range []string{
		"%ext0 = extractelement <8 x i32>",
		"%extmask0 = extractelement <8 x i32> %floatmask",
		"call i32 @injectFaultIntTy(i32 %ext0",
		"%ins0 = insertelement <8 x i32>",
		"%ext7 = extractelement <8 x i32> %ins6",
		"%ins7 = insertelement <8 x i32> %ins6",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("Figure 5 shape missing %q in:\n%s", frag, text)
		}
	}
	// The masked store must consume the instrumented clone (%ins7), not
	// the original load.
	if !strings.Contains(text, "maskstore.d.256(i32* %a2_str_addr.2, <8 x i32> %floatmask.2, <8 x i32> %ins7)") {
		t.Errorf("users not redirected to instrumented clone:\n%s", text)
	}
}

// TestInstrumentationIsSemanticallyTransparent: with a CountOnly plan the
// instrumented module must compute exactly what the original computes.
func TestInstrumentationTransparent(t *testing.T) {
	run := func(instrument bool) []int32 {
		res := compileVCopy(t)
		if instrument {
			if _, err := Instrument(res.Module, EnumerateSites(res.Module, nil)); err != nil {
				t.Fatal(err)
			}
		}
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		AttachRuntime(x.It, &Plan{Mode: CountOnly})
		in := make([]int32, 13)
		for i := range in {
			in[i] = int32(i*3 - 7)
		}
		a1, _ := x.AllocI32(in)
		a2, _ := x.AllocI32(make([]int32, len(in)))
		if _, tr := x.CallExport("vcopy", exec.PtrArgI32(a1), exec.PtrArgI32(a2),
			exec.I32Arg(int64(len(in)))); tr != nil {
			t.Fatal(tr)
		}
		out, _ := x.ReadI32(a2, len(in))
		return out
	}
	plain := run(false)
	instrumented := run(true)
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("instrumentation changed semantics at %d: %d vs %d",
				i, plain[i], instrumented[i])
		}
	}
}

// TestMaskedLaneNotASite: dynamic site counting must skip masked-off
// lanes (§II: the mask decides whether to target a lane).
func TestMaskedLaneNotASite(t *testing.T) {
	countDynSites := func(n int64) uint64 {
		res := compileVCopy(t)
		sites := EnumerateSites(res.Module, nil)
		// Only masked sites, to isolate the effect.
		var masked []*Site
		for _, s := range sites {
			if s.MaskOperand >= 0 {
				masked = append(masked, s)
			}
		}
		if _, err := Instrument(res.Module, masked); err != nil {
			t.Fatal(err)
		}
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{Mode: CountOnly}
		AttachRuntime(x.It, plan)
		a1, _ := x.AllocI32(make([]int32, 16))
		a2, _ := x.AllocI32(make([]int32, 16))
		if _, tr := x.CallExport("vcopy", exec.PtrArgI32(a1), exec.PtrArgI32(a2),
			exec.I32Arg(n)); tr != nil {
			t.Fatal(tr)
		}
		return plan.DynSites
	}
	// n=11: partial body covers lanes for elements 8..10 → 3 active lanes
	// on the load site + 3 on the store site = 6 dynamic sites.
	if got := countDynSites(11); got != 6 {
		t.Fatalf("n=11 masked dynamic sites = %d, want 6", got)
	}
	// n=16: no remainder → the partial body never runs → 0 masked sites.
	if got := countDynSites(16); got != 0 {
		t.Fatalf("n=16 masked dynamic sites = %d, want 0", got)
	}
}

func TestWholeRegisterAblation(t *testing.T) {
	res := compileVCopy(t)
	ip := &InstrumentPass{Category: passes.PureData, WholeRegister: true,
		Out: &Instrumentation{}}
	if err := ip.Run(res.Module); err != nil {
		t.Fatal(err)
	}
	// Whole-register mode: one lane site per instruction-level site.
	if len(ip.Out.LaneSites) != len(ip.Out.Sites) {
		t.Fatalf("whole-register mode: %d lane sites for %d sites",
			len(ip.Out.LaneSites), len(ip.Out.Sites))
	}
	if err := res.Module.Verify(); err != nil {
		t.Fatal(err)
	}
	// The vector inject runtime must be declared.
	found := false
	for _, f := range res.Module.Funcs {
		if strings.HasPrefix(f.Nam, "injectFaultVecTy.") {
			found = true
		}
	}
	if !found {
		t.Error("vector inject runtime not declared")
	}
}

func TestInstrumentScalarAndStoreSites(t *testing.T) {
	// A scalar-only function: sites target L-values and the store operand.
	src := `
export void g(uniform int a[], uniform int n) {
	uniform int x = n * 3 + 1;
	a[0] = x;
}
`
	res, err := codegen.CompileSource(src, isa.AVX, "g")
	if err != nil {
		t.Fatal(err)
	}
	sites := EnumerateSites(res.Module, nil)
	inst, err := Instrument(res.Module, sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Module.Verify(); err != nil {
		t.Fatal(err)
	}
	text := res.Module.Func("g").String()
	if !strings.Contains(text, "@injectFaultIntTy(") {
		t.Errorf("scalar instrumentation missing:\n%s", text)
	}
	// Each scalar site yields exactly one lane site.
	for _, ls := range inst.LaneSites {
		if ls.Lane != 0 {
			t.Fatal("scalar lane site with lane != 0")
		}
	}
}

func TestInjectNameMapping(t *testing.T) {
	cases := []struct {
		ty   *ir.Type
		want string
	}{
		{ir.F32, "injectFaultFloatTy"},
		{ir.F64, "injectFaultDoubleTy"},
		{ir.I32, "injectFaultIntTy"},
		{ir.I64, "injectFaultLongTy"},
		{ir.I1, "injectFaultBoolTy"},
		{ir.Ptr(ir.F32), "injectFaultPtrTy.float"},
		{ir.Vec(ir.I32, 8), "injectFaultVecTy.v8i32"},
	}
	for _, c := range cases {
		if got := injectName(c.ty); got != c.want {
			t.Errorf("injectName(%s) = %q, want %q", c.ty, got, c.want)
		}
	}
}

// TestInstrumentRedirectsEveryUser instruments every site of a masked
// vector kernel, in enumeration order and in reverse, and checks that
// each module verifies and that no instruction of the original program
// still reads a site's value: every original user of an L-value and
// every store-like site's value operand reads the chain's result.
// Reverse order makes each site's position search wrap to its block's
// start.
func TestInstrumentRedirectsEveryUser(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		res := compileVCopy(t)
		sites := EnumerateSites(res.Module, nil)
		orig := map[*ir.Instr]bool{}
		for _, in := range res.Module.Func("vcopy").Instrs() {
			orig[in] = true
		}
		order := append([]*Site(nil), sites...)
		if reverse {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		inst, err := Instrument(res.Module, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Module.Verify(); err != nil {
			t.Fatalf("reverse=%t: instrumented module invalid: %v", reverse, err)
		}
		lanes := 0
		for _, s := range sites {
			lanes += s.Lanes()
			if s.ValueOperand >= 0 {
				if v, ok := s.Value().(*ir.Instr); !ok || orig[v] {
					t.Errorf("reverse=%t: %s stores %s, not its chain's result",
						reverse, s.Instr, s.Value().Ident())
				}
				continue
			}
			for _, u := range s.Instr.Uses() {
				if orig[u.User] {
					t.Errorf("reverse=%t: %s still reads %s", reverse, u.User, s.Instr.Ident())
				}
			}
		}
		if len(inst.LaneSites) != lanes {
			t.Errorf("reverse=%t: %d lane sites, want %d", reverse, len(inst.LaneSites), lanes)
		}
	}
}

// TestInstrumentDetachedSite reports a site whose instruction left its
// block as an error instead of panicking.
func TestInstrumentDetachedSite(t *testing.T) {
	res := compileVCopy(t)
	var site *Site
	for _, s := range EnumerateSites(res.Module, nil) {
		if s.ValueOperand < 0 && s.Instr.Op != ir.OpPhi {
			site = s
			break
		}
	}
	site.Instr.Parent.Remove(site.Instr)
	if _, err := Instrument(res.Module, []*Site{site}); err == nil {
		t.Fatal("instrumenting a detached instruction succeeded")
	}
}
