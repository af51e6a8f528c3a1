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

// sliceHist accumulates per-slice analysis wall time; fault-site
// enumeration runs one forward slice per candidate site, so this is the
// site-selection cost profile.
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

// ForwardSlice walks the transitive uses of value v and reports what the
// slice reaches. The walk follows SSA edges only (it does not track
// data flow through memory), matching IR-level slicing practice.
func ForwardSlice(v ir.Value) SliceFlags {
	defer sliceHist.Since(time.Now())
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
