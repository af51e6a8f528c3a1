// Package core implements VULFI, the paper's vector-oriented fault
// injector: enumeration of fault sites over IR (treating each scalar
// element of a vector L-value as a unique fault site), category-based
// site selection via forward-slice analysis, the Figure 4/5
// extract–inject–insert instrumentation rewrite, and the single-bit-flip
// fault-injection runtime (§II-B fault model).
package core

import (
	"strings"

	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// Site is one instruction-level fault-injection target. A vector site
// expands to Lanes lane-sites at instrumentation time, each with its own
// runtime site ID (§II-B: "each of its scalar elements is considered a
// unique fault site").
type Site struct {
	// ID is the instruction-level index in enumeration order.
	ID int
	// Instr is the instruction carrying the target value.
	Instr *ir.Instr
	// ValueOperand is the operand index of the targeted value for
	// store-like instructions, or -1 when the L-value is targeted.
	ValueOperand int
	// MaskOperand is the operand index of the execution mask for masked
	// vector intrinsics, or -1 (unmasked: every lane is a live site).
	MaskOperand int
	// Flags is the forward-slice classification of the site.
	Flags passes.SliceFlags
}

// Value returns the targeted IR value.
func (s *Site) Value() ir.Value {
	if s.ValueOperand >= 0 {
		return s.Instr.Operand(s.ValueOperand)
	}
	return s.Instr
}

// Lanes returns the number of lane-sites this site expands to.
func (s *Site) Lanes() int { return s.Value().Type().Lanes() }

// IsVector reports whether the site's instruction is a vector instruction
// (the paper's definition: at least one vector-typed operand).
func (s *Site) IsVector() bool { return s.Instr.IsVectorInstr() }

// Matches reports whether the site belongs to the category.
func (s *Site) Matches(c passes.Category) bool { return s.Flags.Matches(c) }

// runtimeCall reports whether a call targets the VULFI runtime or the
// language runtime (output, detectors) rather than program computation;
// such calls are never fault sites.
func runtimeCall(in *ir.Instr) bool {
	if in.Op != ir.OpCall {
		return false
	}
	n := in.Callee.Nam
	return strings.HasPrefix(n, "vulfi.") || strings.HasPrefix(n, "injectFault") ||
		strings.HasPrefix(n, "checkInvariants") || strings.HasPrefix(n, "checkUniform")
}

// EnumerateSites walks the given functions (all module definitions when
// funcs is nil) and builds the instruction-level fault-site list:
// every instruction L-value, plus the stored-value operand of stores and
// masked store intrinsics (the paper's store special case).
func EnumerateSites(m *ir.Module, funcs []*ir.Func) []*Site {
	if funcs == nil {
		for _, f := range m.Funcs {
			if !f.IsDecl {
				funcs = append(funcs, f)
			}
		}
	}
	var sites []*Site
	add := func(s *Site) {
		s.ID = len(sites)
		sites = append(sites, s)
	}
	for _, f := range funcs {
		sl := passes.ForwardSlices(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if runtimeCall(in) {
					continue
				}
				switch {
				case in.Op == ir.OpStore:
					add(&Site{Instr: in, ValueOperand: 0, MaskOperand: -1,
						Flags: sl.Of(in.Operand(0))})
				case in.Op == ir.OpCall:
					mi, masked := isa.MaskedOpInfo(in.Callee.Nam)
					switch {
					case masked && mi.IsStore:
						add(&Site{Instr: in, ValueOperand: mi.ValueOperand,
							MaskOperand: mi.MaskOperand,
							Flags:       sl.Of(in.Operand(mi.ValueOperand))})
					case masked:
						add(&Site{Instr: in, ValueOperand: -1,
							MaskOperand: mi.MaskOperand,
							Flags:       sl.Of(in)})
					case !in.Ty.IsVoid():
						add(&Site{Instr: in, ValueOperand: -1, MaskOperand: -1,
							Flags: sl.Of(in)})
					}
				case !in.Ty.IsVoid():
					add(&Site{Instr: in, ValueOperand: -1, MaskOperand: -1,
						Flags: sl.Of(in)})
				}
			}
		}
	}
	return sites
}

// SelectSites filters sites by category (the paper's fault-site selection
// heuristics, §II-C).
func SelectSites(sites []*Site, c passes.Category) []*Site {
	var out []*Site
	for _, s := range sites {
		if s.Matches(c) {
			out = append(out, s)
		}
	}
	return out
}

// CensusRow is the Figure 10 instruction-mix datum for one category.
type CensusRow struct {
	Category    passes.Category
	ScalarSites int
	VectorSites int
}

// Total returns the row's site count.
func (r CensusRow) Total() int { return r.ScalarSites + r.VectorSites }

// VectorFraction returns the vector share of the row (0 when empty).
func (r CensusRow) VectorFraction() float64 {
	if r.Total() == 0 {
		return 0
	}
	return float64(r.VectorSites) / float64(r.Total())
}

// Census computes the scalar/vector instruction mix per fault-site
// category (the data behind Figure 10).
func Census(sites []*Site) []CensusRow {
	rows := make([]CensusRow, len(passes.AllCategories))
	for i, c := range passes.AllCategories {
		rows[i].Category = c
		for _, s := range sites {
			if !s.Matches(c) {
				continue
			}
			if s.IsVector() {
				rows[i].VectorSites++
			} else {
				rows[i].ScalarSites++
			}
		}
	}
	return rows
}
