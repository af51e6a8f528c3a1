package codegen_test

import (
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// TestSSAValidityAllBenchmarks compiles every benchmark for every ISA
// (including the AVX512 extension), then verifies the module — types,
// structure and SSA dominance — before and after detector insertion and
// full VULFI instrumentation. This is the whole-pipeline structural
// safety net.
func TestSSAValidityAllBenchmarks(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			t.Run(b.Name+"/"+target.Name, func(t *testing.T) {
				res, err := codegen.CompileSource(b.Source, target, b.Name)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				if err := res.Module.Verify(); err != nil {
					t.Fatalf("module invalid after codegen:\n%v", err)
				}
				pm := &passes.Manager{Verify: true}
				pm.Add(&detect.ForeachInvariantPass{})
				pm.Add(&detect.UniformBroadcastPass{})
				pm.Add(&core.InstrumentPass{Category: passes.Control})
				if err := pm.Run(res.Module); err != nil {
					t.Fatalf("pass pipeline: %v", err)
				}
				if err := res.Module.Verify(); err != nil {
					t.Fatalf("module invalid after instrumentation:\n%v", err)
				}
			})
		}
	}
}
