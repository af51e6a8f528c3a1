package campaign

import (
	"context"
	"math"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

func smallCfg(b *benchmarks.Benchmark, cat passes.Category) Config {
	return Config{
		Benchmark:   b,
		ISA:         isa.AVX,
		Category:    cat,
		Scale:       benchmarks.ScaleTest,
		Experiments: 10,
		Campaigns:   2,
		Seed:        1,
		Detectors:   true,
	}
}

func TestStudyVectorCopy(t *testing.T) {
	for _, cat := range passes.AllCategories {
		t.Run(cat.String(), func(t *testing.T) {
			sr, err := RunStudy(context.Background(), smallCfg(benchmarks.VectorCopy, cat))
			if err != nil {
				t.Fatal(err)
			}
			if sr.Totals.Experiments != 20 {
				t.Fatalf("experiments = %d, want 20", sr.Totals.Experiments)
			}
			if sr.LaneSites == 0 {
				t.Fatal("no lane sites instrumented")
			}
			if sr.Totals.SDC+sr.Totals.Benign+sr.Totals.Crash != 20 {
				t.Fatal("outcomes do not partition the experiments")
			}
			if sr.Totals.NoSites == 20 {
				t.Fatal("every experiment was vacuous: no dynamic sites reached")
			}
		})
	}
}

// TestInjectionActuallyHappens verifies that most experiments reach the
// chosen dynamic site and perform the flip.
func TestInjectionActuallyHappens(t *testing.T) {
	p, err := Prepare(smallCfg(benchmarks.VectorCopy, passes.PureData))
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for i := int64(0); i < 20; i++ {
		r, err := p.RunExperiment(context.Background(), 100+i)
		if err != nil {
			t.Fatal(err)
		}
		if r.Record.Width > 0 {
			injected++
			if r.Record.Before == r.Record.After {
				t.Fatalf("recorded injection did not change the value: %+v", r.Record)
			}
		}
	}
	if injected == 0 {
		t.Fatal("no experiment performed an injection")
	}
}

// TestExperimentDeterminism re-runs the same seed and expects identical
// outcome and injection record.
func TestExperimentDeterminism(t *testing.T) {
	p, err := Prepare(smallCfg(benchmarks.DotProduct, passes.Control))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.RunExperiment(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunExperiment(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.Record != b.Record || a.DynSites != b.DynSites {
		t.Fatalf("non-deterministic experiment: %+v vs %+v", a, b)
	}
}

// TestControlFaultsCauseMoreDamage is the paper's central qualitative
// claim on the micro-benchmarks (§IV-E): pure-data faults on vector copy
// never produce *detectable-by-invariant* SDCs, while control faults
// produce high SDC rates.
func TestPureDataSitesNeverFireForeachDetector(t *testing.T) {
	sr, err := RunStudy(context.Background(), smallCfg(benchmarks.VectorCopy, passes.PureData))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Totals.Detected != 0 {
		t.Fatalf("pure-data faults fired the foreach invariant detector %d times",
			sr.Totals.Detected)
	}
}

func TestOverheadMeasurement(t *testing.T) {
	o, err := MeasureOverhead(benchmarks.VectorCopy, isa.AVX,
		benchmarks.ScaleTest, passes.Control, false, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.DetDynInstrs <= o.BaseDynInstrs {
		t.Fatalf("detector variant should execute more instructions: base=%v det=%v",
			o.BaseDynInstrs, o.DetDynInstrs)
	}
	if o.DynOverhead() > 0.5 {
		t.Fatalf("exit-only detector overhead suspiciously high: %v", o.DynOverhead())
	}
	if !(o.WallRatio > 0) || math.IsInf(o.WallRatio, 0) {
		t.Fatalf("wall ratio %v, want a positive finite median", o.WallRatio)
	}
}

func TestDynCount(t *testing.T) {
	d, err := DynCount(benchmarks.Stencil, isa.SSE, benchmarks.ScaleTest, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no dynamic instructions counted")
	}
}

// TestMaskLoopDetectorConfig exercises the extension detector through the
// campaign configuration on the divergent Mandelbrot workload.
func TestMaskLoopDetectorConfig(t *testing.T) {
	cfg := smallCfg(benchmarks.Mandelbrot, passes.Control)
	cfg.MaskLoopDetector = true
	sr, err := RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Totals.Experiments != 20 {
		t.Fatalf("experiments = %d", sr.Totals.Experiments)
	}
	// The pass must have been applied: the module declares the runtime.
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range p.Res.Module.Funcs {
		if f.IsDecl && strings.HasPrefix(f.Nam, "checkMaskLoopMonotonic") {
			found = true
		}
	}
	if !found {
		t.Fatal("mask-loop detector runtime not declared")
	}
}
