package campaign

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// constWords snapshots the words of every constant operand of m.
func constWords(m *ir.Module) map[*ir.Const][]uint64 {
	out := map[*ir.Const][]uint64{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i := 0; i < in.NumOperands(); i++ {
					if k, ok := in.Operand(i).(*ir.Const); ok && out[k] == nil {
						out[k] = slices.Clone(k.Bits)
					}
				}
			}
		}
	}
	return out
}

// TestRunsLeaveConstantsAlone: both backends read IR constants in place
// (the tree-walker's operands, the vm's constant pool), so a run that
// wrote a value's words could rewrite the prepared module every later
// run executes. Every benchmark × ISA × category cell, detectors on in
// every other one, runs one experiment (a golden and a faulty run) on
// each backend (a cell without dynamic fault sites, Mandelbrot's
// pure-data ones, runs only its golden run uninjected), and afterwards
// every constant operand of the prepared module must hold the words it
// held before.
func TestRunsLeaveConstantsAlone(t *testing.T) {
	cells := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			for _, cat := range passes.AllCategories {
				detectors := cells%2 == 0
				cells++
				for _, backend := range []string{"tree", "vm"} {
					cfg := Config{
						Benchmark: b, ISA: target, Category: cat, Scale: benchmarks.ScaleTest,
						Experiments: 1, Campaigns: 1, Seed: 3, Workers: 1, Backend: backend,
						Detectors: detectors, BroadcastDetector: detectors, MaskLoopDetector: detectors,
					}
					p, err := Prepare(cfg)
					if err != nil {
						t.Fatal(err)
					}
					before := constWords(p.Res.Module)
					r, err := p.RunExperimentAt(context.Background(), 0)
					if err != nil {
						t.Fatalf("%s on %s: %v", cfg, backend, err)
					}
					if r.DynSites > 0 && r.Record == (ExperimentResult{}).Record {
						t.Fatalf("%s on %s: the faulty run injected nothing", cfg, backend)
					}
					for k, want := range before {
						if !slices.Equal(k.Bits, want) {
							t.Fatalf("%s on %s: constant %s of type %s holds %#x after a run, %#x before",
								cfg, backend, k.Ident(), k.Ty, k.Bits, want)
						}
					}
				}
			}
		}
	}
	if cells != 117 {
		t.Fatalf("covered %d cells, want 117", cells)
	}
}

// TestTreeStudySharesPrepared runs tree studies with four workers over
// one shared Prepared, whose module every worker's instance executes at
// once; under the race detector, a write to the IR during execution
// (a lazily filled cache, a constant written in place) fails it. Each
// study must equal the same cell run on one worker.
func TestTreeStudySharesPrepared(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.Jacobi, benchmarks.Mandelbrot, benchmarks.VectorSum} {
		for _, cat := range []passes.Category{passes.PureData, passes.Control} {
			cfg := Config{
				Benchmark: b, ISA: isa.AVX, Category: cat, Scale: benchmarks.ScaleTest,
				Experiments: 4, Campaigns: 2, Seed: 5, Backend: "tree",
				Detectors: true, BroadcastDetector: true, MaskLoopDetector: true,
			}
			var out [][]byte
			for _, workers := range []int{4, 1} {
				cfg.Workers = workers
				p, err := Prepare(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := p.RunStudy(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, studyBytes(t, sr))
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("%s: four workers diverged from one:\n%s\n%s", cfg, out[0], out[1])
			}
		}
	}
}
