package codegen_test

import (
	"strings"
	"testing"

	"vulfi/internal/codegen"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
)

const vcopySrc = `
export void vcopy(uniform int a1[], uniform int a2[], uniform int n) {
	foreach (i = 0 ... n) {
		a2[i] = a1[i];
	}
	return;
}
`

func compileT(t *testing.T, src string, target *isa.ISA) *codegen.Result {
	t.Helper()
	res, err := codegen.CompileSource(src, target, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

func instT(t *testing.T, res *codegen.Result) *exec.Instance {
	t.Helper()
	x, err := exec.NewInstance(res, interp.Options{})
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return x
}

func TestVCopyBothISAs(t *testing.T) {
	for _, target := range isa.All {
		t.Run(target.Name, func(t *testing.T) {
			// n = 13 exercises both full body (8) and partial (5) on AVX.
			res := compileT(t, vcopySrc, target)
			x := instT(t, res)
			src := make([]int32, 13)
			for i := range src {
				src[i] = int32(i * 7)
			}
			a1, err := x.AllocI32(src)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := x.AllocI32(make([]int32, 13))
			if err != nil {
				t.Fatal(err)
			}
			if _, tr := x.CallExport("vcopy", exec.PtrArgI32(a1),
				exec.PtrArgI32(a2), exec.I32Arg(13)); tr != nil {
				t.Fatalf("run: %v", tr)
			}
			got, err := x.ReadI32(a2, 13)
			if err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("a2[%d] = %d, want %d", i, got[i], src[i])
				}
			}
		})
	}
}

func TestForeachCFGShape(t *testing.T) {
	res := compileT(t, vcopySrc, isa.AVX)
	f := res.Module.Func("vcopy")
	wantBlocks := []string{"allocas", "foreach_full_body.lr.ph",
		"foreach_full_body", "partial_inner_all_outer", "partial_inner_only",
		"foreach_reset"}
	for _, nm := range wantBlocks {
		if f.BlockByName(nm) == nil {
			t.Errorf("missing block %q in lowered foreach\n%s", nm, f)
		}
	}
	text := f.String()
	for _, frag := range []string{"nextras = srem i32", "aligned_end = sub i32",
		"new_counter = add i32"} {
		if !strings.Contains(text, frag) {
			t.Errorf("lowered IR missing %q:\n%s", frag, text)
		}
	}
	if len(res.Foreachs) != 1 {
		t.Fatalf("expected 1 ForeachInfo, got %d", len(res.Foreachs))
	}
	fi := res.Foreachs[0]
	if fi.VL != 8 {
		t.Errorf("AVX VL = %d, want 8", fi.VL)
	}
	if fi.NewCounter.Nam != "new_counter" {
		t.Errorf("NewCounter named %q", fi.NewCounter.Nam)
	}
}

func TestMaskedIntrinsicsInPartialBody(t *testing.T) {
	res := compileT(t, vcopySrc, isa.AVX)
	text := res.Module.Func("vcopy").String()
	if !strings.Contains(text, "llvm.x86.avx2.maskload.d.256") {
		t.Errorf("partial body should use the AVX masked load intrinsic:\n%s", text)
	}
	if !strings.Contains(text, "llvm.x86.avx2.maskstore.d.256") {
		t.Errorf("partial body should use the AVX masked store intrinsic:\n%s", text)
	}
}

const dotSrc = `
export uniform float dot(uniform float a[], uniform float b[], uniform int n) {
	varying float partial = 0.0;
	foreach (i = 0 ... n) {
		partial += a[i] * b[i];
	}
	uniform float total = reduce_add(partial);
	return total;
}
`

func TestDotProduct(t *testing.T) {
	for _, target := range isa.All {
		t.Run(target.Name, func(t *testing.T) {
			res := compileT(t, dotSrc, target)
			x := instT(t, res)
			n := 11
			av := make([]float32, n)
			bv := make([]float32, n)
			var want float32
			for i := range av {
				av[i] = float32(i) + 0.5
				bv[i] = 2
				want += av[i] * bv[i]
			}
			a, _ := x.AllocF32(av)
			b, _ := x.AllocF32(bv)
			got, tr := x.CallExport("dot", exec.PtrArgF32(a), exec.PtrArgF32(b),
				exec.I32Arg(int64(n)))
			if tr != nil {
				t.Fatalf("run: %v", tr)
			}
			if f := float32(got.Float()); f != want {
				t.Fatalf("dot = %v, want %v", f, want)
			}
		})
	}
}

const varyingIfSrc = `
export void relu(uniform float a[], uniform float b[], uniform int n) {
	foreach (i = 0 ... n) {
		varying float v = a[i];
		if (v < 0.0) {
			v = 0.0;
		}
		b[i] = v;
	}
}
`

func TestVaryingIfPredication(t *testing.T) {
	res := compileT(t, varyingIfSrc, isa.SSE)
	x := instT(t, res)
	in := []float32{-1, 2, -3, 4, -5, 6, -7}
	a, _ := x.AllocF32(in)
	b, _ := x.AllocF32(make([]float32, len(in)))
	if _, tr := x.CallExport("relu", exec.PtrArgF32(a), exec.PtrArgF32(b),
		exec.I32Arg(int64(len(in)))); tr != nil {
		t.Fatalf("run: %v", tr)
	}
	got, _ := x.ReadF32(b, len(in))
	for i, v := range in {
		want := v
		if want < 0 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("b[%d] = %v, want %v", i, got[i], want)
		}
	}
}

const varyingWhileSrc = `
export void collatzSteps(uniform int a[], uniform int out[], uniform int n) {
	foreach (i = 0 ... n) {
		varying int v = a[i];
		varying int steps = 0;
		while (v > 1) {
			if (v % 2 == 0) {
				v = v / 2;
			} else {
				v = 3 * v + 1;
			}
			steps = steps + 1;
		}
		out[i] = steps;
	}
}
`

func collatzRef(v int32) int32 {
	var s int32
	for v > 1 {
		if v%2 == 0 {
			v /= 2
		} else {
			v = 3*v + 1
		}
		s++
	}
	return s
}

func TestVaryingWhileMaskLoop(t *testing.T) {
	for _, target := range isa.All {
		t.Run(target.Name, func(t *testing.T) {
			res := compileT(t, varyingWhileSrc, target)
			x := instT(t, res)
			in := []int32{1, 2, 3, 4, 5, 6, 7, 27, 9, 10, 11}
			a, _ := x.AllocI32(in)
			out, _ := x.AllocI32(make([]int32, len(in)))
			if _, tr := x.CallExport("collatzSteps", exec.PtrArgI32(a),
				exec.PtrArgI32(out), exec.I32Arg(int64(len(in)))); tr != nil {
				t.Fatalf("run: %v", tr)
			}
			got, _ := x.ReadI32(out, len(in))
			for i, v := range in {
				if got[i] != collatzRef(v) {
					t.Fatalf("steps[%d] = %d, want %d", i, got[i], collatzRef(v))
				}
			}
		})
	}
}

const gatherSrc = `
export void permute(uniform int idx[], uniform int src[], uniform int dst[],
		uniform int n) {
	foreach (i = 0 ... n) {
		dst[i] = src[idx[i]];
	}
}
`

func TestGather(t *testing.T) {
	res := compileT(t, gatherSrc, isa.AVX)
	x := instT(t, res)
	n := 10
	idx := make([]int32, n)
	src := make([]int32, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(n - 1 - i)
		src[i] = int32(i * 100)
	}
	ai, _ := x.AllocI32(idx)
	as, _ := x.AllocI32(src)
	ad, _ := x.AllocI32(make([]int32, n))
	if _, tr := x.CallExport("permute", exec.PtrArgI32(ai), exec.PtrArgI32(as),
		exec.PtrArgI32(ad), exec.I32Arg(int64(n))); tr != nil {
		t.Fatalf("run: %v", tr)
	}
	got, _ := x.ReadI32(ad, n)
	for i := 0; i < n; i++ {
		if got[i] != src[idx[i]] {
			t.Fatalf("dst[%d] = %d, want %d", i, got[i], src[idx[i]])
		}
	}
	text := res.Module.Func("permute").String()
	if !strings.Contains(text, ".gather.") {
		t.Errorf("expected gather intrinsic in lowered IR:\n%s", text)
	}
}

const broadcastSrc = `
export void scale(uniform float a[], uniform int n, uniform float s) {
	foreach (i = 0 ... n) {
		a[i] = a[i] * s;
	}
}
`

func TestUniformBroadcastPattern(t *testing.T) {
	res := compileT(t, broadcastSrc, isa.AVX)
	text := res.Module.Func("scale").String()
	// Figure 9: insertelement into undef then shufflevector zeroinit mask.
	if !strings.Contains(text, "_broadcast_init = insertelement") ||
		!strings.Contains(text, "shufflevector") {
		t.Errorf("missing Figure 9 broadcast pattern:\n%s", text)
	}

	x := instT(t, res)
	in := []float32{1, 2, 3, 4, 5}
	a, _ := x.AllocF32(in)
	if _, tr := x.CallExport("scale", exec.PtrArgF32(a), exec.I32Arg(5),
		exec.F32Arg(2.5)); tr != nil {
		t.Fatalf("run: %v", tr)
	}
	got, _ := x.ReadF32(a, 5)
	for i, v := range in {
		if got[i] != v*2.5 {
			t.Fatalf("a[%d] = %v, want %v", i, got[i], v*2.5)
		}
	}
}

const uniformLoopSrc = `
export uniform int sumSquares(uniform int n) {
	uniform int s = 0;
	for (uniform int i = 0; i < n; i++) {
		s += i * i;
	}
	return s;
}
`

func TestUniformForLoop(t *testing.T) {
	res := compileT(t, uniformLoopSrc, isa.SSE)
	x := instT(t, res)
	got, tr := x.CallExport("sumSquares", exec.I32Arg(10))
	if tr != nil {
		t.Fatalf("run: %v", tr)
	}
	want := int64(0)
	for i := int64(0); i < 10; i++ {
		want += i * i
	}
	if got.Int() != want {
		t.Fatalf("sumSquares = %d, want %d", got.Int(), want)
	}
}

const callSrc = `
float helper(varying float x, varying float y) {
	return x * y + 1.0;
}

export void applyHelper(uniform float a[], uniform int n) {
	foreach (i = 0 ... n) {
		a[i] = helper(a[i], a[i]);
	}
}
`

func TestUserFunctionCallWithMask(t *testing.T) {
	res := compileT(t, callSrc, isa.AVX)
	x := instT(t, res)
	in := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9} // 9 = full body + partial lane
	a, _ := x.AllocF32(in)
	if _, tr := x.CallExport("applyHelper", exec.PtrArgF32(a),
		exec.I32Arg(int64(len(in)))); tr != nil {
		t.Fatalf("run: %v", tr)
	}
	got, _ := x.ReadF32(a, len(in))
	for i, v := range in {
		want := float32(v*v) + 1
		if got[i] != want {
			t.Fatalf("a[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestStencilOffsets(t *testing.T) {
	src := `
export void blur(uniform float a[], uniform float b[], uniform int n) {
	foreach (i = 1 ... n - 1) {
		b[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
	}
}
`
	res := compileT(t, src, isa.AVX)
	x := instT(t, res)
	n := 19
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i * i)
	}
	a, _ := x.AllocF32(in)
	b, _ := x.AllocF32(make([]float32, n))
	if _, tr := x.CallExport("blur", exec.PtrArgF32(a), exec.PtrArgF32(b),
		exec.I32Arg(int64(n))); tr != nil {
		t.Fatalf("run: %v", tr)
	}
	got, _ := x.ReadF32(b, n)
	for i := 1; i < n-1; i++ {
		want := (in[i-1] + in[i] + in[i+1]) / 3
		if got[i] != want {
			t.Fatalf("b[%d] = %v, want %v", i, got[i], want)
		}
	}
}
