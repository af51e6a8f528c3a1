package ir_test

import (
	"fmt"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// TestSlotsSurviveEveryPass runs the three detector passes and then
// InstrumentPass over every benchmark × ISA × category cell, and after
// code generation and after each pass requires every instruction of
// every function to hold its own slot below NumSlots, and the module to
// verify.
func TestSlotsSurviveEveryPass(t *testing.T) {
	check := func(cell, stage string, m *ir.Module) {
		t.Helper()
		for _, f := range m.Funcs {
			owner := make([]*ir.Instr, f.NumSlots())
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					s := in.Slot()
					if s < 0 || s >= len(owner) {
						t.Fatalf("%s after %s: @%s: %s has slot %d outside [0, %d)",
							cell, stage, f.Nam, in, s, len(owner))
					}
					if owner[s] != nil {
						t.Fatalf("%s after %s: @%s: %s and %s share slot %d",
							cell, stage, f.Nam, owner[s], in, s)
					}
					owner[s] = in
				}
			}
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%s after %s: %v", cell, stage, err)
		}
	}
	cells := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			for _, cat := range passes.AllCategories {
				cell := fmt.Sprintf("%s/%s/%s", b.Name, target.Name, cat)
				res, err := codegen.CompileSource(b.Source, target, b.Name)
				if err != nil {
					t.Fatal(err)
				}
				check(cell, "codegen", res.Module)
				for _, p := range []passes.Pass{
					&detect.ForeachInvariantPass{},
					&detect.UniformBroadcastPass{},
					&detect.MaskMonotonicityPass{},
					&core.InstrumentPass{Category: cat, Out: &core.Instrumentation{}},
				} {
					pm := &passes.Manager{}
					pm.Add(p)
					if err := pm.Run(res.Module); err != nil {
						t.Fatalf("%s: %s: %v", cell, p.Name(), err)
					}
					check(cell, p.Name(), res.Module)
				}
				cells++
			}
		}
	}
	if cells != 117 {
		t.Fatalf("covered %d cells, want 117", cells)
	}
}
