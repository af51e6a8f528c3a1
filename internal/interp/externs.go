package interp

import (
	"fmt"
	"math"
	"strings"

	"vulfi/internal/ir"
)

// RegisterBuiltins installs the language runtime builtins every program
// can use: the output functions (whose accumulated stream is the
// program's comparable output) and an abort hook. Each vulfi.out.<type>
// declaration prints every lane of its argument in the format of its
// element type.
func RegisterBuiltins(it *Interp) {
	for _, f := range it.Mod.Funcs {
		if f.IsDecl && strings.HasPrefix(f.Nam, "vulfi.out.") && len(f.Params) == 1 {
			it.RegisterExtern(f.Nam, outFor(f.Params[0].Ty.Scalar()))
		}
	}
	it.RegisterExtern("vulfi.abort", func(it *Interp, args []Value) (Value, *Trap) {
		return Value{}, trapf(TrapHalt, "program abort")
	})
}

// outFor returns the output builtin for lanes of type elem.
func outFor(elem *ir.Type) ExternFn {
	format := "%d\n"
	switch elem {
	case ir.F32:
		format = "%.5g\n"
	case ir.F64:
		format = "%.9g\n"
	}
	return func(it *Interp, args []Value) (Value, *Trap) {
		v := args[0]
		if v.Ty.Scalar().IsFloat() {
			for i := range v.Bits {
				fmt.Fprintf(&it.Output, format, v.LaneFloat(i))
			}
		} else {
			for i := range v.Bits {
				fmt.Fprintf(&it.Output, format, v.LaneInt(i))
			}
		}
		return Value{}, nil
	}
}

// mathUnary maps intrinsic base names to per-lane float implementations.
var mathUnary = map[string]func(float64) float64{
	"sqrt":  math.Sqrt,
	"sin":   math.Sin,
	"cos":   math.Cos,
	"tan":   math.Tan,
	"exp":   math.Exp,
	"log":   math.Log,
	"fabs":  math.Abs,
	"floor": math.Floor,
	"ceil":  math.Ceil,
	"round": math.Round,
	"rcp":   func(x float64) float64 { return 1 / x },
	"rsqrt": func(x float64) float64 { return 1 / math.Sqrt(x) },
}

// mathBinary maps intrinsic base names to per-lane binary implementations.
var mathBinary = map[string]func(float64, float64) float64{
	"pow":    math.Pow,
	"minnum": math.Min,
	"maxnum": math.Max,
	"atan2":  math.Atan2,
}

// intrinsicBase extracts the operation name from an LLVM-style intrinsic
// name: "llvm.sqrt.v8f32" -> "sqrt".
func intrinsicBase(name string) string {
	if !strings.HasPrefix(name, "llvm.") {
		return ""
	}
	rest := name[len("llvm."):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// genericIntrinsic resolves per-lane math intrinsics by base name,
// covering every type suffix (.f32, .v4f32, .v8f32, ...); it returns nil
// for any other name.
func genericIntrinsic(name string) ExternFn {
	base := intrinsicBase(name)
	if fn, ok := mathUnary[base]; ok {
		return func(it *Interp, args []Value) (Value, *Trap) {
			return mapLanes1(args[0], fn), nil
		}
	}
	if fn, ok := mathBinary[base]; ok {
		return func(it *Interp, args []Value) (Value, *Trap) {
			return mapLanes2(args[0], args[1], fn), nil
		}
	}
	return nil
}

func mapLanes1(v Value, fn func(float64) float64) Value {
	out := Zero(v.Ty)
	for i := range v.Bits {
		out.SetLaneFloat(i, fn(v.LaneFloat(i)))
	}
	return out
}

func mapLanes2(a, b Value, fn func(float64, float64) float64) Value {
	out := Zero(a.Ty)
	for i := range a.Bits {
		out.SetLaneFloat(i, fn(a.LaneFloat(i), b.LaneFloat(i)))
	}
	return out
}
