// Package report regenerates the paper's tables and figures as text:
// Table I (benchmarks and dynamic instruction counts), Figure 10
// (scalar/vector instruction mix per fault-site category), Figure 11
// (SDC/Benign/Crash rates per benchmark × category × ISA), and Figure 12
// (detector efficacy and overhead on the micro-benchmarks), plus the
// DESIGN.md ablations.
package report

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/isa"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// Options scales the studies.
type Options struct {
	// Experiments per campaign and campaigns per cell (Fig 11).
	Experiments int
	Campaigns   int
	// MicroExperiments for the Fig 12 detector study (paper: 2000).
	MicroExperiments int
	Scale            benchmarks.Scale
	Seed             int64
	Workers          int
	// Inputs is the input-pool size K threaded into every study cell:
	// experiment i draws input i mod K and golden runs are memoized
	// (0 = a fresh input per experiment, no cache).
	Inputs int
	// Backend is the execution backend threaded into every study cell:
	// "" or "vm" for the compiled bytecode backend, "tree" for the
	// reference interpreter (identical results, slower). Figure 12's
	// overhead and Table I's dynamic counts always run on the tree.
	Backend string
	// Benchmarks filters to the named subset (nil = all).
	Benchmarks []string
	// ISAs filters targets (nil = AVX + SSE).
	ISAs []*isa.ISA

	// Events, when non-nil, traces every study cell and receives each
	// finished study's span timeline as obs JSONL (one header line, then
	// one line per span), appended study by study.
	Events io.Writer
	// Progress, when non-nil, renders a live per-cell progress line
	// (counts, exp/s, ETA) to the writer — typically os.Stderr.
	Progress io.Writer
}

// runStudy threads the options' telemetry sinks into one study cell and
// runs it, rendering live progress and appending the study's span
// timeline to Events when configured.
func (o Options) runStudy(cfg campaign.Config) (*campaign.StudyResult, error) {
	if o.Events != nil {
		cfg.Timeline = true
	}
	cfg.Inputs = o.Inputs
	cfg.Backend = o.Backend
	if o.Progress != nil {
		pr := telemetry.NewProgress(o.Progress, cfg.String(),
			cfg.Campaigns*cfg.Experiments)
		cfg.OnResult = func(_ int, _ int64, r *campaign.ExperimentResult) {
			pr.Observe(r.Outcome.String(), r.Detected)
		}
		defer pr.Finish()
	}
	sr, err := campaign.RunStudy(context.Background(), cfg)
	if err != nil || o.Events == nil {
		return sr, err
	}
	if err := sr.Timeline.WriteJSONL(o.Events); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return sr, nil
}

// Defaults returns a laptop-scale configuration; Full returns the
// paper-scale one (20 campaigns × 100 experiments; 2000 micro runs).
func Defaults() Options {
	return Options{
		Experiments: 50, Campaigns: 5, MicroExperiments: 400,
		Scale: benchmarks.ScaleDefault, Seed: 20160516,
	}
}

// Full returns the paper-scale options (§IV-D: 9 × 2 × 3 × 2000 =
// 108,000 experiments; §IV-E: 2000 per micro-benchmark per category).
func Full() Options {
	o := Defaults()
	o.Experiments = 100
	o.Campaigns = 20
	o.MicroExperiments = 2000
	return o
}

func (o Options) isas() []*isa.ISA {
	if len(o.ISAs) > 0 {
		return o.ISAs
	}
	return isa.All
}

func (o Options) studyBenchmarks() []*benchmarks.Benchmark {
	all := benchmarks.Study()
	if len(o.Benchmarks) == 0 {
		return all
	}
	var out []*benchmarks.Benchmark
	for _, b := range all {
		for _, n := range o.Benchmarks {
			if b.Name == n {
				out = append(out, b)
			}
		}
	}
	return out
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// Table1 regenerates Table I: benchmark list, language, inputs, and
// average dynamic instruction count per ISA.
func Table1(w io.Writer, o Options) error {
	fmt.Fprintln(w, "TABLE I: Benchmarks used in the fault injection study")
	fmt.Fprintln(w, "(dynamic instruction counts are simulator-scale; the paper's run at native scale into the millions)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Suite\tBenchmark\tTest Input\tTarget\tAvg Dynamic Instr Count")
	for _, b := range o.studyBenchmarks() {
		for _, target := range o.isas() {
			d, err := campaign.DynCount(b, target, o.Scale, o.Seed, 5)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0f\n",
				b.Suite, b.Name, b.InputDesc, target.Name, d)
		}
	}
	return tw.Flush()
}

// Fig10 regenerates Figure 10: composition of vector and scalar
// instructions among fault sites, per benchmark × category × ISA.
func Fig10(w io.Writer, o Options) error {
	fmt.Fprintln(w, "FIGURE 10: Composition of vector and scalar instructions per fault-site category")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tISA\tCategory\tScalar\tVector\tVector %")
	type agg struct{ vec, tot int }
	perCat := map[passes.Category]*agg{}
	for _, c := range passes.AllCategories {
		perCat[c] = &agg{}
	}
	for _, b := range o.studyBenchmarks() {
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return err
		}
		for _, target := range o.isas() {
			res, err := codegen.Compile(prog, target, b.Name)
			if err != nil {
				return err
			}
			sites := core.EnumerateSites(res.Module, nil)
			for _, row := range core.Census(sites) {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\n",
					b.Name, target.Name, row.Category,
					row.ScalarSites, row.VectorSites, pct(row.VectorFraction()))
				perCat[row.Category].vec += row.VectorSites
				perCat[row.Category].tot += row.Total()
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nAverages across benchmarks (paper: pure-data 67%, control 43% vector):")
	for _, c := range passes.AllCategories {
		a := perCat[c]
		if a.tot > 0 {
			fmt.Fprintf(w, "  %-10s %s vector\n", c, pct(float64(a.vec)/float64(a.tot)))
		}
	}
	return nil
}

// Fig11 regenerates Figure 11: SDC/Benign/Crash rates for every
// benchmark × category × ISA, with the §IV-D statistical qualification.
func Fig11(w io.Writer, o Options) error {
	fmt.Fprintf(w, "FIGURE 11: Fault injection outcomes (%d campaigns x %d experiments per cell)\n",
		o.Campaigns, o.Experiments)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tISA\tCategory\tSDC\tBenign\tCrash\t±MoE(SDC)\tnormal\tlane sites")
	for _, b := range o.studyBenchmarks() {
		for _, target := range o.isas() {
			for _, cat := range passes.AllCategories {
				sr, err := o.runStudy(campaign.Config{
					Benchmark: b, ISA: target, Category: cat, Scale: o.Scale,
					Experiments: o.Experiments, Campaigns: o.Campaigns,
					Seed: o.Seed, Workers: o.Workers,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%v\t%d\n",
					b.Name, target.Name, cat,
					pct(sr.Totals.SDCRate()), pct(sr.Totals.BenignRate()),
					pct(sr.Totals.CrashRate()), pct(sr.MarginOfError),
					sr.NearNormal, sr.LaneSites)
			}
		}
	}
	return tw.Flush()
}

// Fig12 regenerates Figure 12: the §IV-E detector study on the three
// micro-benchmarks — average overhead, SDC rate, and SDC detection rate
// per fault-site category.
func Fig12(w io.Writer, o Options) error {
	fmt.Fprintf(w, "FIGURE 12: foreach-invariant detector study (%d experiments per cell)\n",
		o.MicroExperiments)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Micro-benchmark\tCategory\tAvg Overhead(dyn)\tAvg Overhead(wall)\tSDC\tSDC Detection Rate")
	target := isa.AVX
	for _, b := range benchmarks.Micro() {
		oh, err := campaign.MeasureOverhead(b, target, o.Scale,
			passes.Control, false, o.Seed, 100)
		if err != nil {
			return err
		}
		for _, cat := range passes.AllCategories {
			sr, err := o.runStudy(campaign.Config{
				Benchmark: b, ISA: target, Category: cat, Scale: o.Scale,
				Experiments: o.MicroExperiments, Campaigns: 1,
				Seed: o.Seed, Workers: o.Workers, Detectors: true,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
				b.Name, cat, pct(oh.DynOverhead()), pct(oh.WallOverhead()),
				pct(sr.Totals.SDCRate()), pct(sr.Totals.SDCDetectionRate()))
		}
	}
	return tw.Flush()
}

// Ablations runs the DESIGN.md design-choice studies: per-lane vs
// whole-register sites, mask-aware vs mask-oblivious accounting, and
// exit-only vs per-iteration detector placement.
func Ablations(w io.Writer, o Options) error {
	fmt.Fprintln(w, "ABLATIONS")
	b := benchmarks.VectorCopy
	target := isa.AVX

	fmt.Fprintln(w, "\n(a) Per-lane vs whole-register fault sites (vector copy, pure-data):")
	for _, whole := range []bool{false, true} {
		sr, err := o.runStudy(campaign.Config{
			Benchmark: b, ISA: target, Category: passes.PureData, Scale: o.Scale,
			Experiments: o.MicroExperiments, Campaigns: 1, Seed: o.Seed,
			Workers: o.Workers, WholeRegisterSites: whole,
		})
		if err != nil {
			return err
		}
		mode := "per-lane      "
		if whole {
			mode = "whole-register"
		}
		fmt.Fprintf(w, "  %s  lane-sites=%4d  SDC=%s Benign=%s Crash=%s\n",
			mode, sr.LaneSites, pct(sr.Totals.SDCRate()),
			pct(sr.Totals.BenignRate()), pct(sr.Totals.CrashRate()))
	}

	fmt.Fprintln(w, "\n(b) Mask-aware vs mask-oblivious lane accounting (vector copy, pure-data):")
	fmt.Fprintln(w, "    (test-scale input with a gang remainder, so the partial body runs)")
	for _, obl := range []bool{false, true} {
		p, err := campaign.Prepare(campaign.Config{
			Benchmark: b, ISA: target, Category: passes.PureData,
			Scale: benchmarks.ScaleTest, // n=13/24: forces masked tail lanes
			Seed:  o.Seed, MaskOblivious: obl,
		})
		if err != nil {
			return err
		}
		r, err := p.RunExperiment(context.Background(), o.Seed)
		if err != nil {
			return err
		}
		mode := "mask-aware    "
		if obl {
			mode = "mask-oblivious"
		}
		fmt.Fprintf(w, "  %s  dynamic sites N=%d (input %s)\n",
			mode, r.DynSites, r.InputLabel)
	}

	fmt.Fprintln(w, "\n(c) Detector placement: exit-only (paper) vs every-iteration:")
	for _, every := range []bool{false, true} {
		oh, err := campaign.MeasureOverhead(b, target, o.Scale,
			passes.Control, every, o.Seed, 100)
		if err != nil {
			return err
		}
		mode := "exit-only      "
		if every {
			mode = "every-iteration"
		}
		fmt.Fprintf(w, "  %s  dyn overhead=%s wall overhead=%s\n",
			mode, pct(oh.DynOverhead()), pct(oh.WallOverhead()))
	}
	return nil
}
