// Package interp executes vulfi IR with architectural semantics: a flat
// byte-addressable memory with bounds checking, hardware-like traps
// (out-of-bounds, null dereference, division by zero), per-lane vector
// arithmetic, and dynamic-instruction accounting.
//
// The interpreter stands in for native execution of the instrumented
// binary in the paper's experiments: fault-injection outcomes
// (SDC/Benign/Crash) depend on the architectural semantics of the IR, and
// the interpreter makes those semantics deterministic and observable.
package interp

import (
	"fmt"
	"math"

	"vulfi/internal/ir"
)

// Value is a runtime value: a type plus one raw 64-bit payload per lane.
// Integers are stored truncated to their width; float32 as Float32bits;
// float64 as Float64bits; pointers as 64-bit addresses. Storing raw bit
// patterns makes single-bit-flip injection uniform across all types.
//
// A value's words are immutable once it is produced: the tree-walker
// reads a constant operand as the ir.Const's own words, shares one
// value among every use of its result, and builds each result in new
// words (insertelement and FlipBit clone first). So no extern or
// observer may write the words of a value it is handed; the one
// exception is the result Interp.Call returns to Go code, which is the
// caller's own.
type Value struct {
	Ty   *ir.Type
	Bits []uint64
}

// Scalar constructs a one-lane value from a raw payload.
func Scalar(ty *ir.Type, bits uint64) Value {
	return Value{Ty: ty, Bits: []uint64{bits}}
}

// IntValue constructs an integer value of type ty from v.
func IntValue(ty *ir.Type, v int64) Value {
	return Scalar(ty, ir.TruncateToWidth(uint64(v), ty.Bits))
}

// BoolValue constructs an i1 value.
func BoolValue(b bool) Value {
	if b {
		return Scalar(ir.I1, 1)
	}
	return Scalar(ir.I1, 0)
}

// FloatValue constructs a float value of type ty (F32/F64) from v.
func FloatValue(ty *ir.Type, v float64) Value {
	if ty == ir.F32 {
		return Scalar(ty, uint64(math.Float32bits(float32(v))))
	}
	return Scalar(ty, math.Float64bits(v))
}

// PtrValue constructs a pointer value with the given address.
func PtrValue(ty *ir.Type, addr uint64) Value { return Scalar(ty, addr) }

// Zero returns the zero value of ty.
func Zero(ty *ir.Type) Value {
	return Value{Ty: ty, Bits: make([]uint64, ty.Lanes())}
}

// Lanes returns the lane count.
func (v Value) Lanes() int { return len(v.Bits) }

// Int returns lane 0 sign-extended (integer types).
func (v Value) Int() int64 { return v.LaneInt(0) }

// LaneInt returns lane i sign-extended to int64.
func (v Value) LaneInt(i int) int64 {
	return ir.SignExtend(v.Bits[i], v.Ty.Scalar().Bits)
}

// Uint returns lane 0 as an unsigned payload.
func (v Value) Uint() uint64 { return v.Bits[0] }

// Float returns lane 0 as float64 (float types).
func (v Value) Float() float64 { return v.LaneFloat(0) }

// LaneFloat returns lane i as a float64.
func (v Value) LaneFloat(i int) float64 {
	if v.Ty.Scalar() == ir.F32 {
		return float64(math.Float32frombits(uint32(v.Bits[i])))
	}
	return math.Float64frombits(v.Bits[i])
}

// SetLaneFloat stores f into lane i, respecting the lane width.
func (v Value) SetLaneFloat(i int, f float64) {
	if v.Ty.Scalar() == ir.F32 {
		v.Bits[i] = uint64(math.Float32bits(float32(f)))
	} else {
		v.Bits[i] = math.Float64bits(f)
	}
}

// SetLaneInt stores x into lane i, truncating to the lane width.
func (v Value) SetLaneInt(i int, x int64) {
	v.Bits[i] = ir.TruncateToWidth(uint64(x), v.Ty.Scalar().Bits)
}

// Bool reports lane 0 of an i1 value.
func (v Value) Bool() bool { return v.Bits[0]&1 != 0 }

// Clone returns a deep copy of v.
func (v Value) Clone() Value {
	b := make([]uint64, len(v.Bits))
	copy(b, v.Bits)
	return Value{Ty: v.Ty, Bits: b}
}

// FlipBit flips bit `bit` of lane `lane`, truncating the result to the
// lane's significant width. This is the paper's single-bit-flip primitive.
func (v Value) FlipBit(lane, bit int) Value {
	out := v.Clone()
	w := v.Ty.ScalarBits()
	out.Bits[lane] ^= 1 << uint(bit%w)
	out.Bits[lane] = ir.TruncateToWidth(out.Bits[lane], w)
	return out
}

// String formats the value for diagnostics.
func (v Value) String() string {
	s := v.Ty.Scalar()
	one := func(i int) string {
		switch {
		case s.IsFloat():
			return fmt.Sprintf("%g", v.LaneFloat(i))
		case s.IsPointer():
			return fmt.Sprintf("%#x", v.Bits[i])
		default:
			return fmt.Sprintf("%d", v.LaneInt(i))
		}
	}
	if !v.Ty.IsVector() {
		return one(0)
	}
	out := "<"
	for i := range v.Bits {
		if i > 0 {
			out += ", "
		}
		out += one(i)
	}
	return out + ">"
}

// ConstValue converts an ir constant into a runtime value with its own
// copy of the constant's words.
func ConstValue(c *ir.Const) Value {
	b := make([]uint64, len(c.Bits))
	copy(b, c.Bits)
	return Value{Ty: c.Ty, Bits: b}
}
