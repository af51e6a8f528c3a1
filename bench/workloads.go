package main

import (
	"fmt"
	"math/rand"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
)

// defaultSeed is the seed the committed reference digests cover.
const defaultSeed = 20160516

// cell is one study configuration of a workload; its Seed is filled in
// per round from the workload seed.
type cell struct {
	name string
	cfg  campaign.Config
}

// workload is one fixed traffic mix. Study workloads repeat rounds of
// their cells until the measurement time is spent; every round draws
// fresh cell seeds, so a longer run averages over more inputs.
type workload struct {
	name, why string
	// service marks vulfid-service, which runs jobs through an
	// in-process coordinator instead of studies in this process.
	service bool
	// other is the backend the correctness checks compare against.
	other string
	cells []cell
	// tailP is the tail percentile reported as latency_tail_ms. Rounds
	// repeat at least minRounds times so it rests on enough samples.
	tailP     float64
	minRounds int
	maxRounds int
}

// workloads in the order driveAll alternates them.
var workloads = []*workload{fig11Sweep(), fixedInputLarge(), detectorsTree(), vulfidService()}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func cellName(b *benchmarks.Benchmark, t *isa.ISA, c passes.Category) string {
	return fmt.Sprintf("%s/%s/%s", b.Name, t.Name, c)
}

// fig11Sweep is the paper's Figure 11: every Table I benchmark on both
// ISAs and all three site categories, a fresh input per experiment.
func fig11Sweep() *workload {
	w := &workload{
		name:  "fig11-sweep",
		why:   "The paper's Figure 11 sweep on the vm backend: 54 cells, a fresh input per experiment, so the golden cache is bypassed",
		other: "tree", tailP: 99, minRounds: 4, maxRounds: 16,
	}
	for _, b := range benchmarks.Study() {
		for _, t := range []*isa.ISA{isa.AVX, isa.SSE} {
			for _, c := range passes.AllCategories {
				w.cells = append(w.cells, cell{cellName(b, t, c), campaign.Config{
					Benchmark: b, ISA: t, Category: c, Scale: benchmarks.ScaleDefault,
					Experiments: 5, Campaigns: 1, Workers: 1, Backend: "vm",
				}})
			}
		}
	}
	return w
}

// fixedInputLarge is the paper-faithful fixed input at large scale:
// every golden run but the first of a cell is a cache hit, so faulty
// runs dominate. Chebyshev, ConjugateGradient, Swaptions, Raytracing and
// Sorting run at 1-30 experiments per second at this scale and would
// leave a round too few cells to fit the measurement time.
func fixedInputLarge() *workload {
	w := &workload{
		name:  "fixed-input-large",
		why:   "One fixed input per cell at large scale: golden runs are cache hits and faulty runs over a larger working set dominate",
		other: "tree", tailP: 99, minRounds: 5, maxRounds: 16,
	}
	for _, b := range []*benchmarks.Benchmark{
		benchmarks.Fluidanimate, benchmarks.Blackscholes, benchmarks.Stencil, benchmarks.Jacobi,
	} {
		for _, t := range []*isa.ISA{isa.AVX, isa.SSE} {
			for _, c := range passes.AllCategories {
				w.cells = append(w.cells, cell{cellName(b, t, c), campaign.Config{
					Benchmark: b, ISA: t, Category: c, Scale: benchmarks.ScaleLarge,
					Experiments: 10, Campaigns: 1, Workers: 1, Backend: "vm", Inputs: 1,
				}})
			}
		}
	}
	return w
}

// detectorsTree is the study cells of the Figure 12 detector study and
// the extension studies, on the reference tree-walker. Mandelbrot costs
// about a hundred times the other cells per experiment on this backend,
// so its cells run 4 experiments a round: enough that the slowest 1% of
// experiments are always large-input Mandelbrot runs.
func detectorsTree() *workload {
	w := &workload{
		name:  "detectors-tree",
		why:   "Figure 12 and extension detector cells on the default tree backend: detector passes and interpreter allocation, vm bypassed",
		other: "vm", tailP: 99, minRounds: 6, maxRounds: 24,
	}
	add := func(name string, cfg campaign.Config) {
		cfg.Scale, cfg.Campaigns, cfg.Workers, cfg.Backend = benchmarks.ScaleDefault, 1, 1, "tree"
		cfg.Detectors = true
		w.cells = append(w.cells, cell{name, cfg})
	}
	for _, b := range benchmarks.Micro() {
		for _, c := range passes.AllCategories {
			add("fig12/"+cellName(b, isa.AVX, c), campaign.Config{
				Benchmark: b, ISA: isa.AVX, Category: c, Experiments: 10,
			})
		}
	}
	for _, b := range []*benchmarks.Benchmark{benchmarks.VectorCopy, benchmarks.Jacobi, benchmarks.Chebyshev} {
		for _, bc := range []bool{false, true} {
			add(fmt.Sprintf("broadcast=%v/%s", bc, cellName(b, isa.AVX, passes.Control)), campaign.Config{
				Benchmark: b, ISA: isa.AVX, Category: passes.Control, Experiments: 10,
				BroadcastDetector: bc,
			})
		}
	}
	for _, ml := range []bool{false, true} {
		add(fmt.Sprintf("maskloop=%v/%s", ml, cellName(benchmarks.Mandelbrot, isa.AVX, passes.Control)), campaign.Config{
			Benchmark: benchmarks.Mandelbrot, ISA: isa.AVX, Category: passes.Control,
			Experiments: 4, MaskLoopDetector: ml,
		})
	}
	for _, b := range benchmarks.Micro() {
		for _, t := range []*isa.ISA{isa.AVX, isa.AVX512} {
			add("isa/"+cellName(b, t, passes.Control), campaign.Config{
				Benchmark: b, ISA: t, Category: passes.Control, Experiments: 5,
			})
		}
	}
	return w
}

// vulfidService's cells are the phase-A job mix: every benchmark at
// test scale on both ISAs and all categories (service.go runs them).
func vulfidService() *workload {
	w := &workload{
		name:    "vulfid-service",
		why:     "Coordinator and two workers on loopback: small jobs, sharded jobs and a restart exercise server, journal, client and coordinator",
		service: true, other: "tree", tailP: 95, minRounds: 2, maxRounds: 12,
	}
	for _, b := range benchmarks.All() {
		for _, t := range []*isa.ISA{isa.AVX, isa.SSE} {
			for _, c := range passes.AllCategories {
				w.cells = append(w.cells, cell{cellName(b, t, c), campaign.Config{
					Benchmark: b, ISA: t, Category: c, Scale: benchmarks.ScaleTest,
					Experiments: 10, Campaigns: 2, Workers: 1, Backend: "vm", Atlas: true,
				}})
			}
		}
	}
	return w
}

// scaled returns cfg with its experiment count multiplied by size (at
// least one); size < 1 makes the quick runs the tests use.
func scaled(cfg campaign.Config, size float64) campaign.Config {
	if size < 1 {
		cfg.Experiments = max(1, int(float64(cfg.Experiments)*size))
	}
	return cfg
}

// mix derives an independent 63-bit seed from a workload seed and a
// position (SplitMix64 finalizer), so neighbouring cells and rounds do
// not share input draws.
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9E3779B97F4A7C15 ^ uint64(p)*0xBF58476D1CE4E5B9
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// stratifier picks cell seeds whose program inputs cover a benchmark's
// input sizes in fixed proportion. Each benchmark draws its input from a
// small set of sizes whose costs differ up to 8x; left to chance, that
// draw would move a round's run time more than any code change worth
// detecting. Inputs are still generated by the benchmark's own Setup.
type stratifier struct {
	insts  map[*benchmarks.Benchmark]*exec.Instance
	strata map[stratumKey][]string
}

type stratumKey struct {
	b     *benchmarks.Benchmark
	scale benchmarks.Scale
}

func newStratifier() *stratifier {
	return &stratifier{insts: map[*benchmarks.Benchmark]*exec.Instance{}, strata: map[stratumKey][]string{}}
}

// label returns the input label benchmark b's Setup draws from seed.
func (s *stratifier) label(b *benchmarks.Benchmark, scale benchmarks.Scale, seed int64) (string, error) {
	x := s.insts[b]
	if x == nil {
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return "", err
		}
		res, err := codegen.Compile(prog, isa.AVX, b.Name)
		if err != nil {
			return "", err
		}
		if x, err = exec.NewInstance(res, interp.Options{}); err != nil {
			return "", err
		}
		s.insts[b] = x
	} else if err := x.Reset(interp.Options{}); err != nil {
		return "", err
	}
	spec, err := b.Setup(x, rand.New(rand.NewSource(seed)), scale)
	if err != nil {
		return "", err
	}
	return spec.Label, nil
}

// labels returns the distinct input labels of b at scale, in first-seen
// order over a fixed probe of seeds.
func (s *stratifier) labels(b *benchmarks.Benchmark, scale benchmarks.Scale) ([]string, error) {
	k := stratumKey{b, scale}
	if ls, ok := s.strata[k]; ok {
		return ls, nil
	}
	var ls []string
	seen := map[string]bool{}
	for i := int64(0); i < 64; i++ {
		l, err := s.label(b, scale, mix(1, i))
		if err != nil {
			return nil, err
		}
		if !seen[l] {
			seen[l] = true
			ls = append(ls, l)
		}
	}
	s.strata[k] = ls
	return ls, nil
}

// seed draws cell seeds from rng until one whose input pool holds each
// input label equally often; the remainder of an uneven split goes to
// the labels at offset onward, so rotating offset across rounds and
// cells covers them all. Gives up after a bounded search and keeps the
// closest draw.
func (s *stratifier) seed(cfg campaign.Config, rng *rand.Rand, offset int) (int64, error) {
	labels, err := s.labels(cfg.Benchmark, cfg.Scale)
	if err != nil {
		return 0, err
	}
	pool := cfg.Experiments * cfg.Campaigns
	if cfg.Inputs > 0 {
		pool = min(pool, cfg.Inputs)
	}
	k := len(labels)
	want := map[string]int{}
	for j, l := range labels {
		want[l] = pool / k
		if (j-offset%k+k)%k < pool%k {
			want[l]++
		}
	}
	best, bestDist := int64(0), -1
	for try := 0; try < 400; try++ {
		cand := rng.Int63()
		c := cfg
		c.Seed = cand
		got := map[string]int{}
		for i := 0; i < pool; i++ {
			l, err := s.label(cfg.Benchmark, cfg.Scale, c.InputSeed(i))
			if err != nil {
				return 0, err
			}
			got[l]++
		}
		dist := 0
		for _, l := range labels {
			d := got[l] - want[l]
			dist += max(d, -d)
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = cand, dist
		}
		if dist == 0 {
			break
		}
	}
	return best, nil
}

// plan returns round r's study configurations for workload seed seed.
func (w *workload) plan(s *stratifier, seed int64, round int, size float64) ([]campaign.Config, error) {
	out := make([]campaign.Config, len(w.cells))
	for i, c := range w.cells {
		cfg := scaled(c.cfg, size)
		rng := rand.New(rand.NewSource(mix(seed, int64(round), int64(i))))
		sd, err := s.seed(cfg, rng, round+i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		cfg.Seed = sd
		out[i] = cfg
	}
	return out, nil
}
