package vulfi_test

import (
	"context"
	"strings"
	"testing"

	vulfi "vulfi"
)

// TestFacadeWorkflow walks the documented public-API workflow end to end.
func TestFacadeWorkflow(t *testing.T) {
	const src = `
export void twice(uniform float a[], uniform int n) {
	foreach (i = 0 ... n) {
		a[i] = a[i] * 2.0;
	}
}
`
	res, err := vulfi.CompileSource(src, vulfi.AVX, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if res.VL != 8 {
		t.Fatalf("AVX gang = %d", res.VL)
	}
	sites := vulfi.EnumerateSites(res.Module, nil)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	ctrl := vulfi.SelectSites(sites, vulfi.Control)
	if len(ctrl) == 0 || len(ctrl) >= len(sites) {
		t.Fatalf("control selection wrong: %d of %d", len(ctrl), len(sites))
	}
	inst, err := vulfi.Instrument(res.Module, sites)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.LaneSites) <= len(sites) {
		t.Fatal("vector sites should expand to more lane sites")
	}

	x, err := vulfi.NewInstance(res, vulfi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &vulfi.Plan{Mode: vulfi.CountOnly}
	vulfi.AttachInjection(x, plan)
	vulfi.AttachDetectors(x)
	addr, _ := x.AllocF32([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if _, tr := x.CallExport("twice", vulfi.PtrArgF32(addr), vulfi.I32Arg(9)); tr != nil {
		t.Fatal(tr)
	}
	if plan.DynSites == 0 {
		t.Fatal("golden run counted no dynamic sites")
	}
}

func TestFacadeBenchmarkRegistry(t *testing.T) {
	if len(vulfi.Benchmarks()) != 9 {
		t.Fatalf("study benchmarks = %d, want 9 (Table I)", len(vulfi.Benchmarks()))
	}
	if len(vulfi.MicroBenchmarks()) != 3 {
		t.Fatalf("micro benchmarks = %d, want 3 (§IV-E)", len(vulfi.MicroBenchmarks()))
	}
	if vulfi.BenchmarkByName("Blackscholes") == nil {
		t.Fatal("Blackscholes missing")
	}
	if vulfi.BenchmarkByName("nope") != nil {
		t.Fatal("unknown benchmark should be nil")
	}
	// Table I order: PARVEC, ISPC, SCL.
	var suites []string
	for _, b := range vulfi.Benchmarks() {
		if len(suites) == 0 || suites[len(suites)-1] != b.Suite {
			suites = append(suites, b.Suite)
		}
	}
	if strings.Join(suites, ",") != "Parvec,ISPC,SCL" {
		t.Fatalf("suite order %v", suites)
	}
}

func TestFacadeStudy(t *testing.T) {
	sr, err := vulfi.RunStudy(context.Background(), vulfi.Config{
		Benchmark: vulfi.BenchmarkByName("DotProduct"),
		ISA:       vulfi.SSE, Category: vulfi.PureData, Scale: vulfi.ScaleTest,
		Experiments: 8, Campaigns: 2, Seed: 5, Detectors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Totals.Experiments != 16 {
		t.Fatalf("experiments = %d", sr.Totals.Experiments)
	}
	if got := sr.Totals.SDC + sr.Totals.Benign + sr.Totals.Crash; got != 16 {
		t.Fatalf("outcomes do not partition: %d", got)
	}
	// §IV-E hypothesis at the facade level: pure-data faults cannot trip
	// the foreach-invariant detector.
	if sr.Totals.Detected != 0 {
		t.Fatal("pure-data faults fired the detector")
	}
}
