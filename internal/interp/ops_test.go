package interp

import (
	"math"
	"testing"
	"testing/quick"

	"vulfi/internal/ir"
)

// evalBinOp builds a one-instruction function and runs it.
func evalBinOp(t *testing.T, op ir.Op, ty *ir.Type, a, b Value) (Value, *Trap) {
	t.Helper()
	m := ir.NewModule("ops")
	f := ir.NewFunc("f", ty, []*ir.Type{ty, ty}, []string{"a", "b"})
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	r := bu.Bin(op, f.Params[0], f.Params[1], "r")
	bu.Ret(r)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	it, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return it.Run("f", a, b)
}

func TestIntArithWraps(t *testing.T) {
	got, tr := evalBinOp(t, ir.OpAdd, ir.I32,
		IntValue(ir.I32, math.MaxInt32), IntValue(ir.I32, 1))
	if tr != nil {
		t.Fatal(tr)
	}
	if got.Int() != math.MinInt32 {
		t.Fatalf("i32 add should wrap: %d", got.Int())
	}
	got, _ = evalBinOp(t, ir.OpMul, ir.I8, IntValue(ir.I8, 100), IntValue(ir.I8, 3))
	if got.Int() != int64(int8(44)) { // 300 mod 256 = 44
		t.Fatalf("i8 mul wrap wrong: %d", got.Int())
	}
}

// Property: i32 add/sub/mul match Go's int32 arithmetic.
func TestIntBinPropertyVsGo(t *testing.T) {
	m := ir.NewModule("p")
	type tc struct {
		op ir.Op
		fn func(a, b int32) int32
	}
	_ = m
	cases := []tc{
		{ir.OpAdd, func(a, b int32) int32 { return a + b }},
		{ir.OpSub, func(a, b int32) int32 { return a - b }},
		{ir.OpMul, func(a, b int32) int32 { return a * b }},
		{ir.OpAnd, func(a, b int32) int32 { return a & b }},
		{ir.OpOr, func(a, b int32) int32 { return a | b }},
		{ir.OpXor, func(a, b int32) int32 { return a ^ b }},
	}
	for _, c := range cases {
		c := c
		prop := func(a, b int32) bool {
			got, tr := intBin(c.op, IntValue(ir.I32, int64(a)), IntValue(ir.I32, int64(b)))
			return tr == nil && int32(got.Int()) == c.fn(a, b)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", c.op, err)
		}
	}
}

// Property: sdiv/srem match Go semantics and trap exactly on the x86
// fault conditions.
func TestDivRemProperty(t *testing.T) {
	prop := func(a, b int32) bool {
		q, trQ := intBin(ir.OpSDiv, IntValue(ir.I32, int64(a)), IntValue(ir.I32, int64(b)))
		r, trR := intBin(ir.OpSRem, IntValue(ir.I32, int64(a)), IntValue(ir.I32, int64(b)))
		if b == 0 || (a == math.MinInt32 && b == -1) {
			return trQ != nil && trR != nil
		}
		return trQ == nil && trR == nil &&
			int32(q.Int()) == a/b && int32(r.Int()) == a%b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDivTrapKinds(t *testing.T) {
	_, tr := evalBinOp(t, ir.OpSDiv, ir.I32, IntValue(ir.I32, 5), IntValue(ir.I32, 0))
	if tr == nil || tr.Kind != TrapDivZero {
		t.Fatalf("div by zero trap = %v", tr)
	}
	_, tr = evalBinOp(t, ir.OpSDiv, ir.I32,
		IntValue(ir.I32, math.MinInt32), IntValue(ir.I32, -1))
	if tr == nil || tr.Kind != TrapDivOverflow {
		t.Fatalf("div overflow trap = %v", tr)
	}
	_, tr = evalBinOp(t, ir.OpUDiv, ir.I32, IntValue(ir.I32, 5), IntValue(ir.I32, 0))
	if tr == nil || tr.Kind != TrapDivZero {
		t.Fatalf("udiv by zero trap = %v", tr)
	}
}

func TestShiftsMaskAmount(t *testing.T) {
	// x86 semantics: the shift amount is taken modulo the width.
	got, _ := intBin(ir.OpShl, IntValue(ir.I32, 1), IntValue(ir.I32, 33))
	if got.Int() != 2 {
		t.Fatalf("shl by 33 on i32 should shift by 1: %d", got.Int())
	}
	got, _ = intBin(ir.OpAShr, IntValue(ir.I32, -8), IntValue(ir.I32, 1))
	if got.Int() != -4 {
		t.Fatalf("ashr sign extension wrong: %d", got.Int())
	}
	got, _ = intBin(ir.OpLShr, IntValue(ir.I32, -8), IntValue(ir.I32, 1))
	if got.Int() != int64(uint32(0xFFFFFFF8)>>1) {
		t.Fatalf("lshr wrong: %d", got.Int())
	}
}

// Property: float ops on F32 round through float32 exactly like Go.
func TestFloatBinProperty(t *testing.T) {
	prop := func(a, b float32) bool {
		add := floatBin(ir.OpFAdd, FloatValue(ir.F32, float64(a)), FloatValue(ir.F32, float64(b)))
		mul := floatBin(ir.OpFMul, FloatValue(ir.F32, float64(a)), FloatValue(ir.F32, float64(b)))
		wa, wm := a+b, a*b
		ga, gm := float32(add.Float()), float32(mul.Float())
		eq := func(x, y float32) bool {
			return x == y || (x != x && y != y) // NaN == NaN for comparison
		}
		return eq(ga, wa) && eq(gm, wm)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatDivNoTrap(t *testing.T) {
	got := floatBin(ir.OpFDiv, FloatValue(ir.F32, 1), FloatValue(ir.F32, 0))
	if !math.IsInf(got.Float(), 1) {
		t.Fatalf("1/0 should be +Inf, got %v", got.Float())
	}
	got = floatBin(ir.OpFDiv, FloatValue(ir.F32, 0), FloatValue(ir.F32, 0))
	if !math.IsNaN(got.Float()) {
		t.Fatalf("0/0 should be NaN, got %v", got.Float())
	}
}

func TestCompares(t *testing.T) {
	c := compare(ir.OpICmp, ir.IntSLT, IntValue(ir.I32, -1), IntValue(ir.I32, 1))
	if !c.Bool() {
		t.Error("-1 slt 1 should hold")
	}
	c = compare(ir.OpICmp, ir.IntULT, IntValue(ir.I32, -1), IntValue(ir.I32, 1))
	if c.Bool() {
		t.Error("-1 ult 1 must be false (unsigned)")
	}
	nan := FloatValue(ir.F32, math.NaN())
	if compare(ir.OpFCmp, ir.FloatOEQ, nan, nan).Bool() {
		t.Error("NaN oeq NaN must be false")
	}
	if !compare(ir.OpFCmp, ir.FloatUNE, nan, nan).Bool() {
		t.Error("NaN une NaN must be true")
	}
}

func TestVectorLanewise(t *testing.T) {
	vt := ir.Vec(ir.I32, 4)
	a := Value{Ty: vt, Bits: []uint64{1, 2, 3, 4}}
	b := Value{Ty: vt, Bits: []uint64{10, 20, 30, 40}}
	got, tr := intBin(ir.OpAdd, a, b)
	if tr != nil {
		t.Fatal(tr)
	}
	for i, want := range []int64{11, 22, 33, 44} {
		if got.LaneInt(i) != want {
			t.Fatalf("lane %d = %d, want %d", i, got.LaneInt(i), want)
		}
	}
	c := compare(ir.OpICmp, ir.IntSGT, a, Value{Ty: vt, Bits: []uint64{2, 2, 2, 2}})
	if c.Ty != ir.Vec(ir.I1, 4) {
		t.Fatal("vector compare result type wrong")
	}
	if c.Bits[0] != 0 || c.Bits[3] != 1 {
		t.Fatalf("vector compare lanes wrong: %v", c.Bits)
	}
}

func TestSelectScalarAndVector(t *testing.T) {
	a := IntValue(ir.I32, 1)
	b := IntValue(ir.I32, 2)
	if selectVal(BoolValue(true), a, b).Int() != 1 {
		t.Error("scalar select true")
	}
	if selectVal(BoolValue(false), a, b).Int() != 2 {
		t.Error("scalar select false")
	}
	vt := ir.Vec(ir.I32, 4)
	cond := Value{Ty: ir.Vec(ir.I1, 4), Bits: []uint64{1, 0, 1, 0}}
	va := Value{Ty: vt, Bits: []uint64{1, 1, 1, 1}}
	vb := Value{Ty: vt, Bits: []uint64{2, 2, 2, 2}}
	got := selectVal(cond, va, vb)
	want := []uint64{1, 2, 1, 2}
	for i := range want {
		if got.Bits[i] != want[i] {
			t.Fatalf("blend lane %d = %d", i, got.Bits[i])
		}
	}
}

func TestCasts(t *testing.T) {
	cases := []struct {
		op   ir.Op
		in   Value
		to   *ir.Type
		want func(Value) bool
	}{
		{ir.OpSExt, IntValue(ir.I8, -5), ir.I32,
			func(v Value) bool { return v.Int() == -5 }},
		{ir.OpZExt, IntValue(ir.I8, -5), ir.I32,
			func(v Value) bool { return v.Int() == 251 }},
		{ir.OpTrunc, IntValue(ir.I32, 0x1FF), ir.I8,
			func(v Value) bool { return v.Int() == -1 }},
		{ir.OpSIToFP, IntValue(ir.I32, -3), ir.F32,
			func(v Value) bool { return v.Float() == -3 }},
		{ir.OpFPToSI, FloatValue(ir.F32, 2.9), ir.I32,
			func(v Value) bool { return v.Int() == 2 }},
		{ir.OpFPToSI, FloatValue(ir.F32, -2.9), ir.I32,
			func(v Value) bool { return v.Int() == -2 }},
		{ir.OpFPExt, FloatValue(ir.F32, 1.5), ir.F64,
			func(v Value) bool { return v.Float() == 1.5 }},
		{ir.OpFPTrunc, FloatValue(ir.F64, math.Pi), ir.F32,
			func(v Value) bool { return float32(v.Float()) == float32(math.Pi) }},
	}
	for _, c := range cases {
		got := castVal(c.op, c.in, c.to)
		if got.Ty != c.to || !c.want(got) {
			t.Errorf("%s(%v) -> %v wrong", c.op, c.in, got)
		}
	}
	// fptosi converts like cvttss2si: NaN, or a truncation outside the
	// destination, gives the "integer indefinite" value, the minimum of
	// an i64 destination, or of i32 for i32 and narrower.
	const i32Min, i64Min = math.MinInt32, math.MinInt64
	for _, c := range []struct {
		in   float32
		to   *ir.Type
		want int64
	}{
		{float32(math.NaN()), ir.I32, i32Min},
		{float32(math.NaN()), ir.I64, i64Min},
		{3e9, ir.I32, i32Min},
		{3e9, ir.I64, 3_000_000_000},
		{-3e9, ir.I32, i32Min},
		{-3e9, ir.I64, -3_000_000_000},
		{1e19, ir.I32, i32Min},
		{1e19, ir.I64, i64Min},
		{-1e19, ir.I32, i32Min},
		{-1e19, ir.I64, i64Min},
		{2147483520, ir.I32, 2147483520}, // the largest f32 below 2^31
		{2147483520, ir.I64, 2147483520},
		{-2147483648, ir.I32, i32Min},
		{-2147483648, ir.I64, -2147483648},
	} {
		got := castVal(ir.OpFPToSI, FloatValue(ir.F32, float64(c.in)), c.to)
		if want := ir.TruncateToWidth(uint64(c.want), c.to.Bits); got.Bits[0] != want {
			t.Errorf("fptosi float %g to %s = %#x, want %#x", c.in, c.to, got.Bits[0], want)
		}
	}
}

func TestFlipBit(t *testing.T) {
	v := FloatValue(ir.F32, 1.0)
	f := v.FlipBit(0, 31) // sign bit
	if f.LaneFloat(0) != -1.0 {
		t.Fatalf("sign flip: %v", f.LaneFloat(0))
	}
	// Flip is an involution.
	if f.FlipBit(0, 31).Bits[0] != v.Bits[0] {
		t.Fatal("double flip should restore")
	}
	// i1 flip stays within width.
	b := BoolValue(true).FlipBit(0, 5)
	if b.Bits[0] != 0 {
		t.Fatalf("i1 flip out of width: %v", b.Bits)
	}
}

// Property: FlipBit always changes exactly the value's own lane and is an
// involution.
func TestFlipBitProperty(t *testing.T) {
	prop := func(x uint32, lane8 uint8, bit8 uint8) bool {
		vt := ir.Vec(ir.I32, 8)
		v := Zero(vt)
		for i := range v.Bits {
			v.Bits[i] = uint64(x) + uint64(i)
		}
		lane := int(lane8) % 8
		bit := int(bit8) % 32
		f := v.FlipBit(lane, bit)
		for i := range v.Bits {
			if i == lane {
				if f.Bits[i] == v.Bits[i] {
					return false
				}
			} else if f.Bits[i] != v.Bits[i] {
				return false
			}
		}
		return f.FlipBit(lane, bit).Bits[lane] == v.Bits[lane]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
