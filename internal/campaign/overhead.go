package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// OverheadResult measures the cost of the synthesized detector blocks
// (Figure 12's "Avg. Overhead"): the paper compares runtimes of the
// instrumented binary with and without the detector block inserted. The
// interpreter gives both a deterministic dynamic-instruction overhead and
// a wall-clock overhead.
type OverheadResult struct {
	Benchmark string
	ISA       string
	Runs      int

	BaseDynInstrs float64
	DetDynInstrs  float64
	// WallRatio is the median over inputs of the detector run's wall
	// time over the base run's, the two timed back to back on the same
	// input.
	WallRatio float64
}

// DynOverhead is the relative dynamic-instruction overhead.
func (o OverheadResult) DynOverhead() float64 {
	if o.BaseDynInstrs == 0 {
		return 0
	}
	return o.DetDynInstrs/o.BaseDynInstrs - 1
}

// WallOverhead is the relative wall-clock overhead.
func (o OverheadResult) WallOverhead() float64 {
	if o.WallRatio == 0 {
		return 0
	}
	return o.WallRatio - 1
}

// MeasureOverhead runs the benchmark on `runs` inputs with and without
// the detector blocks (both variants instrumented in CountOnly mode, like
// the paper's measurement on instrumented binaries) and reports the
// average dynamic instruction counts and the median wall ratio. Each
// input's two runs execute back to back, alternating which goes first,
// so host drift over the measurement cancels out of every ratio instead
// of landing on whichever variant ran later.
func MeasureOverhead(b *benchmarks.Benchmark, target *isa.ISA,
	scale benchmarks.Scale, category passes.Category,
	everyIteration bool, seed int64, runs int) (*OverheadResult, error) {

	build := func(withDetector bool) (*Prepared, error) {
		return compileCell(Config{
			Benchmark: b, ISA: target, Category: category, Scale: scale,
			Detectors: withDetector, DetectorEveryIteration: everyIteration,
		}, telemetry.NewRegistry())
	}

	base, err := build(false)
	if err != nil {
		return nil, err
	}
	det, err := build(true)
	if err != nil {
		return nil, err
	}

	run := func(p *Prepared, inputSeed int64) (uint64, time.Duration, error) {
		plan := &core.Plan{Mode: core.CountOnly}
		x, err := p.newInstance(plan, interp.Options{})
		if err != nil {
			return 0, 0, err
		}
		spec, err := b.Setup(x, rand.New(rand.NewSource(inputSeed)), scale)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, tr := x.CallExport(b.Entry, spec.Args...); tr != nil {
			return 0, 0, fmt.Errorf("overhead run trapped: %w", tr)
		}
		return x.It.DynInstrs, time.Since(start), nil
	}
	variants := [2]*Prepared{base, det}
	var baseDyn, detDyn float64
	ratios := make([]float64, 0, runs)
	// Input -1 is a warm-up pair excluded from timing (allocator and cache
	// effects otherwise dominate small kernels).
	for i := -1; i < runs; i++ {
		var dyn [2]uint64 // indexed like variants
		var wall [2]time.Duration
		for k := 0; k < 2; k++ {
			v := k ^ i&1 // odd inputs run the detector variant first
			if dyn[v], wall[v], err = run(variants[v], seed+int64(i)); err != nil {
				return nil, err
			}
		}
		if i < 0 {
			continue
		}
		baseDyn += float64(dyn[0])
		detDyn += float64(dyn[1])
		ratios = append(ratios, float64(wall[1])/float64(wall[0]))
	}
	sort.Float64s(ratios)
	ratio := ratios[runs/2]
	if runs%2 == 0 {
		ratio = (ratios[runs/2-1] + ratio) / 2
	}
	return &OverheadResult{
		Benchmark: b.Name, ISA: target.Name, Runs: runs,
		BaseDynInstrs: baseDyn / float64(runs),
		DetDynInstrs:  detDyn / float64(runs),
		WallRatio:     ratio,
	}, nil
}

// DynCount measures the average dynamic instruction count of the
// *uninstrumented* benchmark over `samples` randomly drawn inputs — the
// Table I per-benchmark figure.
func DynCount(b *benchmarks.Benchmark, target *isa.ISA,
	scale benchmarks.Scale, seed int64, samples int) (float64, error) {
	res, err := codegen.Compile(compileProgram(b), target, b.Name)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := 0; i < samples; i++ {
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			return 0, err
		}
		spec, err := b.Setup(x, rand.New(rand.NewSource(seed+int64(i))), scale)
		if err != nil {
			return 0, err
		}
		if _, tr := x.CallExport(b.Entry, spec.Args...); tr != nil {
			return 0, fmt.Errorf("%s: clean run trapped: %w", b.Name, tr)
		}
		sum += float64(x.It.DynInstrs)
	}
	return sum / float64(samples), nil
}
