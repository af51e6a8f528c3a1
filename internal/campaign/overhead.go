package campaign

import (
	"fmt"
	"math/rand"
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
	BaseWall      time.Duration
	DetWall       time.Duration
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
	if o.BaseWall == 0 {
		return 0
	}
	return float64(o.DetWall)/float64(o.BaseWall) - 1
}

// MeasureOverhead runs the benchmark `runs` times with and without the
// detector blocks (both variants instrumented in CountOnly mode, like
// the paper's measurement on instrumented binaries) and reports the
// averages.
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

	out := &OverheadResult{Benchmark: b.Name, ISA: target.Name, Runs: runs}
	measure := func(p *Prepared) (float64, time.Duration, error) {
		var dyn float64
		var wall time.Duration
		// Warm-up pass excluded from timing (allocator and cache effects
		// otherwise dominate small kernels).
		for i := -1; i < runs; i++ {
			plan := &core.Plan{Mode: core.CountOnly}
			x, err := p.newInstance(plan, interp.Options{})
			if err != nil {
				return 0, 0, err
			}
			spec, err := b.Setup(x, rand.New(rand.NewSource(seed+int64(i))), scale)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			if _, tr := x.CallExport(b.Entry, spec.Args...); tr != nil {
				return 0, 0, fmt.Errorf("overhead run trapped: %w", tr)
			}
			if i >= 0 {
				wall += time.Since(start)
				dyn += float64(x.It.DynInstrs)
			}
		}
		return dyn / float64(runs), wall / time.Duration(runs), nil
	}
	if out.BaseDynInstrs, out.BaseWall, err = measure(base); err != nil {
		return nil, err
	}
	if out.DetDynInstrs, out.DetWall, err = measure(det); err != nil {
		return nil, err
	}
	return out, nil
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
