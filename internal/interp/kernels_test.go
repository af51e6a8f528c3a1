package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"vulfi/internal/ir"
)

// The reference kernels below are the lane kernels as one per-lane
// switch loop: each lane re-decides the opcode, predicate and lane kind
// and goes through the generic helpers (ir.SignExtend,
// ir.TruncateToWidth, Value.LaneFloat). The production kernels pick one
// loop per call; TestLaneKernelsMatchReference and FuzzLaneKernels
// require them to agree with these bit for bit, trap for trap.

func refIntBinInto(out Value, op ir.Op, a, b Value) *Trap {
	bits := a.Ty.ScalarBits()
	for i := range a.Bits {
		x, y := a.Bits[i], b.Bits[i]
		sx, sy := ir.SignExtend(x, bits), ir.SignExtend(y, bits)
		var r uint64
		switch op {
		case ir.OpAdd:
			r = x + y
		case ir.OpSub:
			r = x - y
		case ir.OpMul:
			r = x * y
		case ir.OpSDiv, ir.OpSRem:
			if sy == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			if sx == minIntFor(bits) && sy == -1 {
				return trapf(TrapDivOverflow, "%d %s -1", sx, op)
			}
			if op == ir.OpSDiv {
				r = uint64(sx / sy)
			} else {
				r = uint64(sx % sy)
			}
		case ir.OpUDiv, ir.OpURem:
			if y == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			if op == ir.OpUDiv {
				r = x / y
			} else {
				r = x % y
			}
		case ir.OpAnd:
			r = x & y
		case ir.OpOr:
			r = x | y
		case ir.OpXor:
			r = x ^ y
		case ir.OpShl:
			r = x << (y % uint64(bits))
		case ir.OpLShr:
			r = x >> (y % uint64(bits))
		case ir.OpAShr:
			r = uint64(sx >> (y % uint64(bits)))
		}
		out.Bits[i] = ir.TruncateToWidth(r, bits)
	}
	return nil
}

func refFloatBinInto(out Value, op ir.Op, a, b Value) {
	for i := range a.Bits {
		x, y := a.LaneFloat(i), b.LaneFloat(i)
		var r float64
		switch op {
		case ir.OpFAdd:
			r = x + y
		case ir.OpFSub:
			r = x - y
		case ir.OpFMul:
			r = x * y
		case ir.OpFDiv:
			r = x / y
		case ir.OpFRem:
			r = math.Mod(x, y)
		}
		// x86 gives a NaN result the first NaN operand, quieted. Go leaves
		// a commutative operation's operand order to the compiler, so the
		// reference states the rule rather than inherit an order.
		if (op == ir.OpFAdd || op == ir.OpFMul) && math.IsNaN(r) {
			if math.IsNaN(x) {
				r = math.Float64frombits(math.Float64bits(x) | 1<<51)
			} else if math.IsNaN(y) {
				r = math.Float64frombits(math.Float64bits(y) | 1<<51)
			}
		}
		if a.Ty.Scalar() == ir.F32 {
			r = float64(float32(r))
		}
		out.SetLaneFloat(i, r)
	}
}

func refCompareInto(out Value, op ir.Op, pred ir.Pred, a, b Value) {
	bits := a.Ty.ScalarBits()
	for i := 0; i < a.Lanes(); i++ {
		var res bool
		if op == ir.OpICmp {
			sx, sy := ir.SignExtend(a.Bits[i], bits), ir.SignExtend(b.Bits[i], bits)
			ux, uy := a.Bits[i], b.Bits[i]
			switch pred {
			case ir.IntEQ:
				res = ux == uy
			case ir.IntNE:
				res = ux != uy
			case ir.IntSLT:
				res = sx < sy
			case ir.IntSLE:
				res = sx <= sy
			case ir.IntSGT:
				res = sx > sy
			case ir.IntSGE:
				res = sx >= sy
			case ir.IntULT:
				res = ux < uy
			case ir.IntULE:
				res = ux <= uy
			case ir.IntUGT:
				res = ux > uy
			case ir.IntUGE:
				res = ux >= uy
			}
		} else {
			x, y := a.LaneFloat(i), b.LaneFloat(i)
			switch pred {
			case ir.FloatOEQ:
				res = x == y
			case ir.FloatONE:
				res = x != y && !math.IsNaN(x) && !math.IsNaN(y)
			case ir.FloatUNE:
				res = x != y
			case ir.FloatOLT:
				res = x < y
			case ir.FloatOLE:
				res = x <= y
			case ir.FloatOGT:
				res = x > y
			case ir.FloatOGE:
				res = x >= y
			}
		}
		out.Bits[i] = 0
		if res {
			out.Bits[i] = 1
		}
	}
}

func refCastInto(out Value, op ir.Op, v Value, to *ir.Type) {
	fromS, toS := v.Ty.Scalar(), to.Scalar()
	for i := range v.Bits {
		switch op {
		case ir.OpTrunc:
			out.Bits[i] = ir.TruncateToWidth(v.Bits[i], toS.Bits)
		case ir.OpZExt:
			out.Bits[i] = v.Bits[i]
		case ir.OpSExt:
			out.Bits[i] = ir.TruncateToWidth(uint64(ir.SignExtend(v.Bits[i], fromS.Bits)), toS.Bits)
		case ir.OpFPTrunc:
			out.Bits[i] = uint64(math.Float32bits(float32(math.Float64frombits(v.Bits[i]))))
		case ir.OpFPExt:
			out.Bits[i] = math.Float64bits(float64(math.Float32frombits(uint32(v.Bits[i]))))
		case ir.OpSIToFP:
			f := float64(ir.SignExtend(v.Bits[i], fromS.Bits))
			if toS == ir.F32 {
				out.Bits[i] = uint64(math.Float32bits(float32(f)))
			} else {
				out.Bits[i] = math.Float64bits(f)
			}
		case ir.OpFPToSI:
			f := v.LaneFloat(i)
			// cvttsd2si: the truncation must fit the 64-bit or the 32-bit
			// destination, or the result is the destination's minimum.
			var r int64 = math.MinInt32
			if toS.Bits > 32 {
				r = math.MinInt64
				if t := math.Trunc(f); t >= math.MinInt64 && t < math.MaxInt64 {
					r = int64(t)
				}
			} else if t := math.Trunc(f); t >= math.MinInt32 && t <= math.MaxInt32 {
				r = int64(t)
			}
			out.Bits[i] = ir.TruncateToWidth(uint64(r), toS.Bits)
		case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
			out.Bits[i] = ir.TruncateToWidth(v.Bits[i], toS.ScalarBits())
		}
	}
}

// laneKinds are the scalar lane types the kernels see.
var laneKinds = []*ir.Type{ir.I1, ir.I8, ir.I16, ir.I32, ir.I64, ir.Ptr(ir.I8), ir.F32, ir.F64}

// kernelOps are the opcodes the lane kernels implement.
var kernelOps = []ir.Op{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem,
	ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
	ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFRem,
	ir.OpICmp, ir.OpFCmp,
	ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpFPTrunc, ir.OpFPExt, ir.OpSIToFP,
	ir.OpFPToSI, ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr,
}

// kernelCase is one kernel call shape: an opcode, its predicate (zero
// unless a compare) and its operand and result lane kinds.
type kernelCase struct {
	op       ir.Op
	pred     ir.Pred
	from, to *ir.Type
}

func (k kernelCase) String() string {
	if k.pred != ir.PredInvalid {
		return fmt.Sprintf("%s %s %s", k.op, k.pred, k.from)
	}
	return fmt.Sprintf("%s %s to %s", k.op, k.from, k.to)
}

// newKernelCase normalizes a drawn shape: a binary op's result is its
// operand kind, a compare's is i1, and only compares keep a predicate.
func newKernelCase(op ir.Op, pred ir.Pred, from, to *ir.Type) kernelCase {
	switch {
	case op == ir.OpICmp || op == ir.OpFCmp:
		to = ir.I1
	case op.IsCast():
		pred = ir.PredInvalid
	default:
		pred, to = ir.PredInvalid, from
	}
	return kernelCase{op, pred, from, to}
}

// admitted reports whether the verifier admits k at 4 lanes.
func (k kernelCase) admitted() bool {
	from, to := ir.Vec(k.from, 4), ir.Vec(k.to, 4)
	f := ir.NewFunc("f", to, []*ir.Type{from, from}, []string{"a", "b"})
	ir.NewModule("k").AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	a, b := f.Params[0], f.Params[1]
	var r *ir.Instr
	switch {
	case k.op == ir.OpICmp:
		r = bu.ICmp(k.pred, a, b, "r")
	case k.op == ir.OpFCmp:
		r = bu.FCmp(k.pred, a, b, "r")
	case k.op.IsCast():
		r = bu.Cast(k.op, a, to, "r")
	default:
		r = bu.Bin(k.op, a, b, "r")
	}
	bu.Ret(r)
	return f.Verify() == nil
}

// admittedCases lists every (opcode, predicate) × lane kind the
// verifier admits, each once.
func admittedCases() []kernelCase {
	var cases []kernelCase
	seen := map[kernelCase]bool{}
	for _, op := range kernelOps {
		for _, from := range laneKinds {
			for _, to := range laneKinds {
				for pred := ir.PredInvalid; pred <= ir.FloatUNE; pred++ {
					k := newKernelCase(op, pred, from, to)
					if !seen[k] {
						seen[k] = true
						if k.admitted() {
							cases = append(cases, k)
						}
					}
				}
			}
		}
	}
	return cases
}

// types returns k's operand and result types at n lanes (scalars at 1).
func (k kernelCase) types(n int) (from, to *ir.Type) {
	if n == 1 {
		return k.from, k.to
	}
	return ir.Vec(k.from, n), ir.Vec(k.to, n)
}

// run applies the kernel, or with ref the reference, to a and b into
// out.
func (k kernelCase) run(out, a, b Value, ref bool) *Trap {
	switch {
	case k.op.IsCast():
		if ref {
			refCastInto(out, k.op, a, out.Ty)
		} else {
			castInto(out, k.op, a, out.Ty)
		}
	case k.op == ir.OpICmp || k.op == ir.OpFCmp:
		if ref {
			refCompareInto(out, k.op, k.pred, a, b)
		} else {
			compareInto(out, k.op, k.pred, a, b)
		}
	case k.from.IsFloat():
		if ref {
			refFloatBinInto(out, k.op, a, b)
		} else {
			floatBinInto(out, k.op, a, b)
		}
	default:
		if ref {
			return refIntBinInto(out, k.op, a, b)
		}
		return intBinInto(out, k.op, a, b)
	}
	return nil
}

// sentinel fills result lanes before a call, so a lane a kernel leaves
// unwritten, or writes past its first trapping lane, shows.
const sentinel = 0xdead_beef_dead_beef

// check runs k's kernel and reference on a and b and reports any
// difference in result bits or trap (kind and message; the result
// lanes pin the first trapping lane, since lanes before it are written
// and the rest keep the sentinel). It returns the reference's trap.
func (k kernelCase) check(t *testing.T, to *ir.Type, a, b Value) *Trap {
	t.Helper()
	got, want := Zero(to), Zero(to)
	for i := range got.Bits {
		got.Bits[i], want.Bits[i] = sentinel, sentinel
	}
	gtr, wtr := k.run(got, a, b, false), k.run(want, a, b, true)
	if (gtr == nil) != (wtr == nil) || gtr != nil && (gtr.Kind != wtr.Kind || gtr.Msg != wtr.Msg) {
		t.Fatalf("%s on %#x, %#x: trap %v, want %v", k, a.Bits, b.Bits, gtr, wtr)
	}
	if !slices.Equal(got.Bits, want.Bits) {
		t.Fatalf("%s on %#x, %#x: %#x, want %#x", k, a.Bits, b.Bits, got.Bits, want.Bits)
	}
	return wtr
}

// edgeValues returns a lane kind's edge lane words: zeros, ones, the
// width's minimum and maximum, shift counts at and past the width,
// divisors 0 and -1, and for floats ±0, ±Inf, subnormals, quiet and
// signalling NaNs with payloads, and the values fptosi's range checks
// turn on.
func edgeValues(kind *ir.Type) []uint64 {
	switch kind {
	case ir.F32:
		var v []uint64
		for _, f := range []float32{1, -1, 0.5, 1.5, -2.5, 2.9, -2.9, 3e9, -3e9, 1e19, -1e19,
			2147483520, -2147483648, 2147483648, math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, 0x1p-126} {
			v = append(v, uint64(math.Float32bits(f)))
		}
		return append(v, 0, 0x8000_0000, 0x7f80_0000, 0xff80_0000, // ±0, ±Inf
			0x0000_0001, 0x007f_ffff, 0x8000_0001, // subnormals
			0x7fc0_0000, 0x7fc1_2345, 0xffe0_0001, // quiet NaNs
			0x7f80_0001, 0x7fa5_4321, 0xff80_0003) // signalling NaNs
	case ir.F64:
		var v []uint64
		for _, f := range []float64{1, -1, 0.5, 1.5, -2.5, 2.9, -2.9, 3e9, -3e9, 1e19, -1e19,
			2147483647.5, -2147483648.5, -2147483649, 0x1p63, -0x1p63, -0x1p63 - 2048,
			0x1p63 - 1024, math.MaxFloat64, -math.MaxFloat64, 0x1p-1022} {
			v = append(v, math.Float64bits(f))
		}
		return append(v, 0, 1<<63, 0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000,
			1, 0x000f_ffff_ffff_ffff, 0x8000_0000_0000_0001,
			0x7ff8_0000_0000_0000, 0x7ff8_0000_1234_5678, 0xfffc_0000_0000_0001,
			0x7ff0_0000_0000_0001, 0x7ff4_3210_0000_0000, 0xfff0_0000_0000_0003)
	}
	w := kind.ScalarBits()
	m := ir.TruncateToWidth(^uint64(0), w)
	v := []uint64{0, 1, 2, 3, m, m - 1, 1 << (w - 1), 1<<(w-1) - 1, // min and max
		uint64(w - 1), uint64(w), uint64(w + 1), uint64(2 * w), 0x5a5a_5a5a_5a5a_5a5a, 0x8000_0000}
	seen := map[uint64]bool{}
	var out []uint64
	for _, x := range v {
		if x &= m; !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestLaneKernelsMatchReference runs every (opcode, predicate) × lane
// kind the verifier admits at 1, 4, 8 and 16 lanes over every pair of
// the kind's edge values and requires the kernel's result bits and
// trap to equal the reference's. One lane covers every pair; wider
// vectors pack consecutive pairs, so a trapping pair stops the kernel
// mid-vector.
func TestLaneKernelsMatchReference(t *testing.T) {
	cases := admittedCases()
	ops := map[ir.Op]bool{}
	traps := 0
	for _, k := range cases {
		ops[k.op] = true
		e := edgeValues(k.from)
		pairs := len(e) * len(e)
		for _, n := range []int{1, 4, 8, 16} {
			from, to := k.types(n)
			for p := 0; p < pairs; p += n {
				a, b := Zero(from), Zero(from)
				for j := 0; j < n; j++ {
					q := (p + j) % pairs
					a.Bits[j], b.Bits[j] = e[q/len(e)], e[q%len(e)]
				}
				if k.check(t, to, a, b) != nil {
					traps++
				}
			}
		}
	}
	if len(ops) != len(kernelOps) {
		t.Fatalf("%d of %d opcodes admitted", len(ops), len(kernelOps))
	}
	if traps == 0 {
		t.Fatal("no case trapped")
	}
	t.Logf("%d cases, %d trapping vectors", len(cases), traps)
}

// FuzzLaneKernels runs arbitrary lane words through a drawn kernel and
// the reference. The draw picks an opcode, predicate and lane kinds by
// index into kernelOps, ir.Pred and laneKinds (shapes the verifier
// rejects are skipped), a lane count from 1 to 16, and the operands'
// lane words from data, eight little-endian bytes each, cycled (all
// zero when data is shorter), alternating between the operands. The
// seed corpus is in testdata/fuzz/FuzzLaneKernels.
func FuzzLaneKernels(f *testing.F) {
	admitted := map[kernelCase]bool{}
	for _, k := range admittedCases() {
		admitted[k] = true
	}
	f.Fuzz(func(t *testing.T, op, pred, from, to, lanes uint8, data []byte) {
		k := newKernelCase(kernelOps[int(op)%len(kernelOps)], ir.Pred(pred%uint8(ir.FloatUNE+1)),
			laneKinds[int(from)%len(laneKinds)], laneKinds[int(to)%len(laneKinds)])
		if !admitted[k] {
			t.Skip()
		}
		n := 1 + int(lanes)%16
		word := func(i int) uint64 {
			if len(data) < 8 {
				return 0
			}
			return binary.LittleEndian.Uint64(data[i*8%(len(data)&^7):])
		}
		fromTy, toTy := k.types(n)
		a, b := Zero(fromTy), Zero(fromTy)
		for j := 0; j < n; j++ {
			a.Bits[j], b.Bits[j] = word(2*j), word(2*j+1)
		}
		k.check(t, toTy, a, b)
	})
}
