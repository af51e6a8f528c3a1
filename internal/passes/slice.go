// Package passes provides the IR analyses VULFI's fault-site selection is
// built on: forward-slice computation over the use-def graph and the
// classification of fault sites into the paper's three categories
// (pure-data, control, address — §II-C, Figure 2).
package passes

import (
	"time"

	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/telemetry"
)

// sliceHist accumulates the wall time of ForwardSlices, which fault-site
// enumeration runs once per function, so this is the site-selection
// cost profile.
var sliceHist = telemetry.Default().Histogram("passes.forward_slice")

// SliceFlags summarizes what a forward slice reaches.
type SliceFlags struct {
	// Control is set when the slice reaches a control-flow decision: a
	// conditional branch condition or the execution mask of a masked
	// vector intrinsic (which gates per-lane execution).
	Control bool
	// Address is set when the slice reaches address computation: a
	// getelementptr operand, the pointer operand of a load/store, or the
	// base/index operands of a gather/scatter/masked memory intrinsic.
	Address bool
}

// join adds g's flags to f, reporting whether f gained any.
func (f *SliceFlags) join(g SliceFlags) bool {
	grew := g.Control && !f.Control || g.Address && !f.Address
	f.Control = f.Control || g.Control
	f.Address = f.Address || g.Address
	return grew
}

// ForwardSlice walks the transitive uses of value v and reports what the
// slice reaches. The walk follows SSA edges only (it does not track
// data flow through memory), matching IR-level slicing practice. It is
// the per-value reference for ForwardSlices, which classifies a whole
// function in one pass.
func ForwardSlice(v ir.Value) SliceFlags {
	var flags SliceFlags
	seen := map[*ir.Instr]bool{}
	var visit func(uses []ir.Use)
	visit = func(uses []ir.Use) {
		for _, u := range uses {
			in := u.User
			ClassifyUse(in, u.Index, &flags)
			if seen[in] {
				continue
			}
			seen[in] = true
			// Propagate through the user's own L-value if it has one.
			if in.Ty != nil && !in.Ty.IsVoid() {
				visit(in.Uses())
			}
		}
	}
	switch x := v.(type) {
	case *ir.Instr:
		visit(x.Uses())
	case *ir.Param:
		visit(x.Uses())
	}
	return flags
}

// FuncSlices holds ForwardSlices' result: the forward-slice flags of
// every instruction (by ir.Instr.Slot) and parameter of one function.
type FuncSlices struct {
	f      *ir.Func
	instrs []SliceFlags
	params []SliceFlags
}

// ForwardSlices classifies every value of f in one least-fixpoint pass
// over its def-use edges. A value's flags are what its own uses reach
// directly (ClassifyUse on each use edge) joined with the flags of each
// user that defines a value, which is ForwardSlice's answer for every
// value at once. The pass classifies each operand once, then pushes an
// instruction onto the worklist only when its flags grow, so with two
// flags it visits each def-use edge at most three times: linear in the
// function, where one ForwardSlice walk per value is quadratic.
func ForwardSlices(f *ir.Func) *FuncSlices {
	defer sliceHist.Since(time.Now())
	s := &FuncSlices{
		f:      f,
		instrs: make([]SliceFlags, f.NumSlots()),
		params: make([]SliceFlags, len(f.Params)),
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, n := 0, in.NumOperands(); i < n; i++ {
				if fl := s.flags(in.Operand(i)); fl != nil {
					ClassifyUse(in, i, fl)
				}
			}
		}
	}
	var work []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if fl := s.instrs[in.Slot()]; fl.Control || fl.Address {
				work = append(work, in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		fl := s.instrs[in.Slot()]
		for i, n := 0, in.NumOperands(); i < n; i++ {
			op := in.Operand(i)
			if dst := s.flags(op); dst != nil && dst.join(fl) {
				if def, ok := op.(*ir.Instr); ok {
					work = append(work, def)
				}
			}
		}
	}
	return s
}

// flags returns where v's flags live when v is an instruction or
// parameter of the function, or nil.
func (s *FuncSlices) flags(v ir.Value) *SliceFlags {
	switch x := v.(type) {
	case *ir.Instr:
		if b := x.Parent; b != nil && b.Func == s.f {
			return &s.instrs[x.Slot()]
		}
	case *ir.Param:
		if x.Index < len(s.f.Params) && s.f.Params[x.Index] == x {
			return &s.params[x.Index]
		}
	}
	return nil
}

// Of returns v's forward-slice flags. A value that is not one of the
// function's instructions or parameters (a constant or a global)
// reaches nothing, as ForwardSlice also finds.
func (s *FuncSlices) Of(v ir.Value) SliceFlags {
	if fl := s.flags(v); fl != nil {
		return *fl
	}
	return SliceFlags{}
}

// ClassifyUse updates flags for a single use edge (user, operand index):
// the Figure 2 rule for which operand uses put a value on the control or
// address slice.
func ClassifyUse(in *ir.Instr, opIdx int, flags *SliceFlags) {
	switch in.Op {
	case ir.OpCondBr:
		flags.Control = true
	case ir.OpGEP:
		flags.Address = true
	case ir.OpLoad:
		if opIdx == 0 {
			flags.Address = true
		}
	case ir.OpStore:
		if opIdx == 1 {
			flags.Address = true
		}
	case ir.OpCall:
		name := in.Callee.Nam
		if mi, ok := isa.MaskedOpInfo(name); ok {
			switch {
			case opIdx == mi.MaskOperand:
				flags.Control = true
			case opIdx == 0:
				flags.Address = true // base pointer
			case opIdx == 1 && isGatherScatter(name):
				flags.Address = true // index vector
			}
		}
	}
}

func isGatherScatter(name string) bool {
	mi, ok := isa.MaskedOpInfo(name)
	if !ok {
		return false
	}
	return mi.MaskOperand == 2 // gather/scatter carry mask at operand 2
}

// Category is a paper fault-site category.
type Category int

// Fault-site categories (§II-C). A site can be both Control and Address
// (Figure 2); PureData is disjoint from both.
const (
	PureData Category = iota
	Control
	Address
)

var categoryNames = map[Category]string{
	PureData: "pure-data", Control: "control", Address: "address",
}

// String returns the category name used in the paper's figures.
func (c Category) String() string { return categoryNames[c] }

// AllCategories lists the categories in the paper's presentation order.
var AllCategories = []Category{PureData, Control, Address}

// Matches reports whether a slice with the given flags belongs to c.
func (f SliceFlags) Matches(c Category) bool {
	switch c {
	case PureData:
		return !f.Control && !f.Address
	case Control:
		return f.Control
	case Address:
		return f.Address
	}
	return false
}
