package ir

import (
	"fmt"
	"math"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, instructions (their L-values), globals, functions
// and basic-block labels.
type Value interface {
	Type() *Type
	// Ident returns the printed identifier of the value ("%x", "@f", or a
	// literal for constants).
	Ident() string
}

// Const is a constant scalar or vector value. Lane payloads are stored as
// raw bit patterns (one uint64 per lane): integers are kept
// zero-extended-by-width, float32 as Float32bits, float64 as Float64bits.
// The bit-pattern representation is what makes single-bit-flip fault
// injection uniform across all types.
type Const struct {
	Ty    *Type
	Bits  []uint64 // one entry per lane; len 1 for scalars
	Undef bool
}

// ConstInt returns an integer constant of type ty with value v (truncated
// to the type's width).
func ConstInt(ty *Type, v int64) *Const {
	if !ty.IsInt() {
		panic("ir.ConstInt: not an integer type: " + ty.String())
	}
	return scalarConst(ty, TruncateToWidth(uint64(v), ty.Bits))
}

// scalarWord holds a single-lane constant together with its one word,
// so a scalar constant costs one allocation instead of two.
type scalarWord struct {
	c Const
	w [1]uint64
}

// scalarConst returns a single-lane constant of type ty holding w.
func scalarConst(ty *Type, w uint64) *Const {
	s := &scalarWord{w: [1]uint64{w}}
	s.c = Const{Ty: ty, Bits: s.w[:]}
	return &s.c
}

// ConstBool returns an i1 constant.
func ConstBool(b bool) *Const {
	if b {
		return ConstInt(I1, 1)
	}
	return ConstInt(I1, 0)
}

// ConstFloat returns a floating constant of type ty (F32 or F64).
func ConstFloat(ty *Type, v float64) *Const {
	switch ty {
	case F32:
		return scalarConst(ty, uint64(math.Float32bits(float32(v))))
	case F64:
		return scalarConst(ty, math.Float64bits(v))
	}
	panic("ir.ConstFloat: not a float type: " + ty.String())
}

// ConstVec returns a vector constant whose lanes all come from lanes
// (len(lanes) must equal the vector length).
func ConstVec(ty *Type, lanes []uint64) *Const {
	if !ty.IsVector() || len(lanes) != ty.Len {
		panic("ir.ConstVec: type/lane mismatch")
	}
	b := make([]uint64, len(lanes))
	copy(b, lanes)
	return &Const{Ty: ty, Bits: b}
}

// ConstSplat returns a vector constant with every lane equal to the scalar
// constant c.
func ConstSplat(n int, c *Const) *Const {
	vt := Vec(c.Ty, n)
	b := make([]uint64, n)
	for i := range b {
		b[i] = c.Bits[0]
	}
	return &Const{Ty: vt, Bits: b}
}

// ConstZero returns the zero value of ty (zeroinitializer for vectors).
func ConstZero(ty *Type) *Const {
	return &Const{Ty: ty, Bits: make([]uint64, ty.Lanes())}
}

// Undef returns an undef value of type ty.
func UndefValue(ty *Type) *Const {
	return &Const{Ty: ty, Bits: make([]uint64, ty.Lanes()), Undef: true}
}

// Type implements Value.
func (c *Const) Type() *Type { return c.Ty }

// Int returns the lane-0 payload sign-extended to int64 (integer types).
// i1 yields 0/1 rather than 0/-1.
func (c *Const) Int() int64 {
	if c.Ty.Scalar().Bits == 1 {
		return int64(c.Bits[0] & 1)
	}
	return SignExtend(c.Bits[0], c.Ty.Scalar().Bits)
}

// Float returns the lane-0 payload as a float64 (float types).
func (c *Const) Float() float64 {
	if c.Ty.Scalar() == F32 {
		return float64(math.Float32frombits(uint32(c.Bits[0])))
	}
	return math.Float64frombits(c.Bits[0])
}

// Ident implements Value.
func (c *Const) Ident() string {
	if c.Undef {
		return "undef"
	}
	s := c.Ty.Scalar()
	one := func(bits uint64) string {
		switch s.Kind {
		case IntKind:
			if s.Bits == 1 {
				if bits&1 != 0 {
					return "true"
				}
				return "false"
			}
			return fmt.Sprintf("%d", SignExtend(bits, s.Bits))
		case FloatKind:
			if s == F32 {
				return fmt.Sprintf("%g", math.Float32frombits(uint32(bits)))
			}
			return fmt.Sprintf("%g", math.Float64frombits(bits))
		case PointerKind:
			if bits == 0 {
				return "null"
			}
			return fmt.Sprintf("ptr:%#x", bits)
		}
		return "?"
	}
	if !c.Ty.IsVector() {
		return one(c.Bits[0])
	}
	allZero := true
	for _, b := range c.Bits {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return "zeroinitializer"
	}
	out := "<"
	for i, b := range c.Bits {
		if i > 0 {
			out += ", "
		}
		out += s.String() + " " + one(b)
	}
	return out + ">"
}

// Param is a function parameter.
type Param struct {
	Nam string
	Ty  *Type
	// Index is the position within the parent function's parameter list.
	Index int

	uses []Use
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Ty }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Nam }

// Global is a module-level named memory object (array/scalar storage).
// Its value is a pointer to the storage.
type Global struct {
	Nam   string
	Elem  *Type // pointee type
	Count int   // number of Elem cells (array length; 1 for scalars)
}

// Type implements Value: a global evaluates to a pointer to its element
// type.
func (g *Global) Type() *Type { return Ptr(g.Elem) }

// Ident implements Value.
func (g *Global) Ident() string { return "@" + g.Nam }

// TruncateToWidth masks v to the low `bits` bits.
func TruncateToWidth(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & ((1 << uint(bits)) - 1)
}

// SignExtend interprets the low `bits` bits of v as a signed integer and
// sign-extends to int64.
func SignExtend(v uint64, bits int) int64 {
	if bits >= 64 {
		return int64(v)
	}
	v = TruncateToWidth(v, bits)
	sign := uint64(1) << uint(bits-1)
	if v&sign != 0 {
		return int64(v | ^((1 << uint(bits)) - 1))
	}
	return int64(v)
}
