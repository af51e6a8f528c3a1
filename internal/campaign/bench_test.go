package campaign

import (
	"context"
	"os"
	"strconv"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// BenchmarkStudyThroughput measures whole-study throughput (prepare
// excluded) on the default-scale AVX/pure-data cell under the
// input-pool knob. The pool size comes from VULFI_BENCH_INPUTS
// (unset/0 = no pool, no cache) so the cached and uncached modes share
// one benchmark name and benchstat can diff them directly:
//
//	VULFI_BENCH_INPUTS=0 go test -run '^$' -bench StudyThroughput -count 10 ./internal/campaign/ > uncached.txt
//	VULFI_BENCH_INPUTS=4 go test -run '^$' -bench StudyThroughput -count 10 ./internal/campaign/ > cached.txt
//	benchstat uncached.txt cached.txt
//
// scripts/bench-cache.sh automates the pairing (see also the CI
// cache-bench job, which fails on uncached-path regressions).
//
// VULFI_BENCH_BACKEND selects the execution backend the same way
// (unset/"tree" = reference tree-walker, "vm" = compiled bytecode), so
// the backend speedup is benchstat-diffable under one name too. Unset
// means tree here, not the study default vm, so the overhead and cache
// gates keep measuring the path BENCH_6.json recorded:
//
//	VULFI_BENCH_BACKEND=tree go test -run '^$' -bench StudyThroughput -count 10 ./internal/campaign/ > tree.txt
//	VULFI_BENCH_BACKEND=vm   go test -run '^$' -bench StudyThroughput -count 10 ./internal/campaign/ > vm.txt
//	benchstat tree.txt vm.txt
//
// scripts/bench-backend.sh automates that pairing and enforces the
// committed BENCH_7.json speedup floor.
func BenchmarkStudyThroughput(b *testing.B) {
	inputs := 0
	if s := os.Getenv("VULFI_BENCH_INPUTS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("VULFI_BENCH_INPUTS=%q: %v", s, err)
		}
		inputs = v
	}
	backend := os.Getenv("VULFI_BENCH_BACKEND")
	if backend == "" {
		backend = "tree"
	}
	cfg := Config{
		Benchmark: benchmarks.VectorCopy, ISA: isa.AVX,
		Category: passes.PureData, Scale: benchmarks.ScaleDefault,
		Experiments: 25, Campaigns: 2, Seed: 1, Workers: 1,
		Inputs: inputs, Backend: backend,
	}
	if err := cfg.Validate(); err != nil {
		b.Fatalf("VULFI_BENCH_BACKEND=%q: %v", backend, err)
	}
	p, err := Prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := p.RunStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		total += sr.Totals.Experiments
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "exp/s")
}

// BenchmarkCampaignThroughput measures end-to-end experiment throughput
// (prepare excluded): one golden/faulty pair per iteration over the
// deterministic seed schedule. The untraced variant is the PR 3
// regression gate — with Config.Trace off the recorder hook is a single
// nil check in the interpreter's hot loop, so untraced throughput must
// stay within noise (±2%) of the pre-tracing baseline:
//
//	go test -run xxx -bench CampaignThroughput/untraced -count 10 ./internal/campaign/
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
			cfg.Trace = traced
			p, err := Prepare(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := p.RunExperiment(context.Background(), cfg.ExperimentSeed(i%64))
				if err != nil {
					b.Fatal(err)
				}
				if traced && r.DynSites > 0 && r.Explanation == nil {
					b.Fatal("traced experiment missing explanation")
				}
			}
			b.ReportMetric(float64(b.N), "experiments")
		})
	}
}

// BenchmarkRecorderOverhead isolates the interpreter-side cost: the same
// golden run with no recorder attached vs with a trace ring attached,
// bounding what Config.Trace costs per retired instruction.
func BenchmarkRecorderOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "detached"
		if traced {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
			cfg.Trace = traced
			p, err := Prepare(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RunExperiment(context.Background(), cfg.ExperimentSeed(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig11Cells returns the Figure 11 sweep's 54 cells (the 9 study
// benchmarks × AVX/SSE × 3 categories, default scale, vm backend) as
// the bench's fig11-sweep workload configures them.
func fig11Cells() []Config {
	var cfgs []Config
	for _, bm := range benchmarks.Study() {
		for _, t := range []*isa.ISA{isa.AVX, isa.SSE} {
			for _, c := range passes.AllCategories {
				cfgs = append(cfgs, Config{
					Benchmark: bm, ISA: t, Category: c, Scale: benchmarks.ScaleDefault,
					Experiments: 5, Campaigns: 1, Workers: 1, Backend: "vm",
				})
			}
		}
	}
	return cfgs
}

// BenchmarkPrepareSweep measures Prepare over the Figure 11 sweep's 54
// cells: compile, instrumentation and vm compile, the per-round set-up
// cost of a Figure-11-shaped run.
//
//	go test -run '^$' -bench PrepareSweep -benchmem ./internal/campaign/
func BenchmarkPrepareSweep(b *testing.B) {
	cfgs := fig11Cells()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := Prepare(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepStudies measures the study phase of the Figure 11
// sweep, which BenchmarkPrepareSweep leaves out: each iteration runs
// RunStudy on the 54 cells, prepared once up front, under a seed no
// other iteration uses, so every experiment draws a fresh input and
// its golden run counts its fault sites. It reports experiments per
// second.
//
//	go test -run '^$' -bench SweepStudies ./internal/campaign/
func BenchmarkSweepStudies(b *testing.B) {
	var cells []*Prepared
	for _, cfg := range fig11Cells() {
		p, err := Prepare(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, p)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range cells {
			p.Cfg.Seed = int64(i*len(cells) + j + 1)
			sr, err := p.RunStudy(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			total += sr.Totals.Experiments
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "exp/s")
}
