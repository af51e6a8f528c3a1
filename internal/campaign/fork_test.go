package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/obs"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
	"vulfi/internal/vm"
)

// forkDefaultScale lists the benchmarks whose test-scale golden runs end
// before, or just after, the first snapshot is due. They run at default
// scale so that their faulty runs fork too. The micro-benchmarks are too
// short to fork at either scale.
var forkDefaultScale = map[string]bool{
	"Sorting": true, "Stencil": true, "Jacobi": true, "Chebyshev": true,
}

// forkCfg is a small vm cell with a two-input pool, so its golden runs
// are cached (and, like every vm golden run, recorded).
func forkCfg(b *benchmarks.Benchmark, target *isa.ISA, cat passes.Category) Config {
	cfg := Config{
		Benchmark:   b,
		ISA:         target,
		Category:    cat,
		Scale:       benchmarks.ScaleTest,
		Experiments: 4,
		Campaigns:   2,
		Seed:        1,
		Inputs:      2,
		Backend:     "vm",
	}
	if forkDefaultScale[b.Name] {
		cfg.Scale = benchmarks.ScaleDefault
	}
	return cfg
}

// forkRun is one study of a cell with every experiment result kept.
type forkRun struct {
	sr                 *StudyResult
	results            map[int]*ExperimentResult
	reg                *telemetry.Registry
	resumed, converged uint64
}

// runForkCell runs the study of cfg, collecting each result through
// OnResult and the metrics on a private registry. uncached knocks out
// the cell's golden cache, so every experiment runs its own golden run.
func runForkCell(t *testing.T, cfg Config, uncached bool) forkRun {
	t.Helper()
	run := forkRun{results: map[int]*ExperimentResult{}}
	var mu sync.Mutex
	cfg.OnResult = func(i int, _ int64, r *ExperimentResult) {
		mu.Lock()
		run.results[i] = r
		mu.Unlock()
	}
	cfg.Metrics = telemetry.NewRegistry()
	run.reg = cfg.Metrics
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uncached {
		p.golden = nil
	}
	if run.sr, err = p.RunStudy(context.Background()); err != nil {
		t.Fatal(err)
	}
	run.resumed = cfg.Metrics.Counter("campaign.fork.resumed").Value()
	run.converged = cfg.Metrics.Counter("campaign.fork.converged").Value()
	return run
}

// sameResults requires per-experiment equality: outcome, detection,
// hang, the full trap provenance (Dyn included), the injection record
// and the golden counters.
func sameResults(t *testing.T, what string, got, want map[int]*ExperimentResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Outcome != w.Outcome || g.Detected != w.Detected || g.Hang != w.Hang ||
			g.Record != w.Record || g.DynSites != w.DynSites ||
			g.GoldenDynInstrs != w.GoldenDynInstrs || g.InputLabel != w.InputLabel {
			t.Fatalf("%s: experiment %d:\ngot  %+v\nwant %+v", what, i, *g, *w)
		}
		if (g.Trap == nil) != (w.Trap == nil) || g.Trap != nil && *g.Trap != *w.Trap {
			t.Fatalf("%s: experiment %d: trap %+v, want %+v", what, i, g.Trap, w.Trap)
		}
	}
}

// TestForkDifferential is golden-state forking's exactness contract.
// Every benchmark × ISA × category runs as a small vm study (detectors
// on in every other cell, one worker and four alternately) at Inputs 0,
// where each golden run is recorded for its one faulty run, and at
// Inputs 2, where golden runs are cached, and again with that cache
// knocked out. All three fork, and each must equal the tree backend,
// which never forks, run the same way: study JSON
// byte-identical, every experiment result equal, and the interpreter
// counters on the registry equal. Cells whose golden runs are long
// enough must have resumed faulty runs, and in each variant some of
// their runs must have stopped where they rejoined their golden run.
// Only a Benign run can rejoin, and every Sorting pure-data run here
// is an SDC, so rejoining is required of the cells together.
func TestForkDifferential(t *testing.T) {
	mustFork := map[string]bool{
		"Jacobi/AVX/pure-data": true, "Jacobi/SSE/pure-data": true,
		"Sorting/AVX/pure-data": true, "Sorting/SSE/pure-data": true,
		"Swaptions/AVX/pure-data": true, "Swaptions/SSE/pure-data": true,
	}
	counters := []string{"interp.instrs", "interp.vector_instrs", "interp.site_visits", "interp.traps"}
	variants := []struct {
		name     string
		inputs   int
		uncached bool
	}{{"fresh", 0, false}, {"cached", 2, false}, {"uncached", 2, true}}
	converged := map[string]uint64{} // mustFork cells' rejoined runs by variant
	cell := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			for _, cat := range passes.AllCategories {
				base := forkCfg(b, target, cat)
				base.Detectors = cell%2 == 0
				base.Workers = 1 + 3*(cell/2%2)
				cell++
				t.Run(base.String(), func(t *testing.T) {
					for _, v := range variants {
						cfg := base
						cfg.Inputs = v.inputs
						t.Run(v.name, func(t *testing.T) {
							forked := runForkCell(t, cfg, v.uncached)
							treeCfg := cfg
							treeCfg.Backend = "tree"
							tree := runForkCell(t, treeCfg, v.uncached)

							if mustFork[cfg.String()] {
								if forked.resumed == 0 {
									t.Fatal("no faulty run resumed from a snapshot")
								}
								converged[v.name] += forked.converged
							}
							if tree.resumed != 0 || tree.converged != 0 {
								t.Fatalf("tree backend resumed %d and converged %d runs, want 0",
									tree.resumed, tree.converged)
							}
							sameResults(t, "forked vs tree", forked.results, tree.results)
							if got, want := studyBytes(t, forked.sr), studyBytes(t, tree.sr); !bytes.Equal(got, want) {
								t.Fatalf("forked study diverged from tree:\nforked: %s\ntree:   %s", got, want)
							}
							for _, name := range counters {
								if got, want := forked.reg.Counter(name).Value(), tree.reg.Counter(name).Value(); got != want {
									t.Errorf("%s = %d, tree backend %d", name, got, want)
								}
							}
						})
					}
				})
			}
		}
	}
	for _, v := range variants {
		if converged[v.name] == 0 {
			t.Errorf("%s: no faulty run of the cells that must fork rejoined its golden run", v.name)
		}
	}
}

// TestForkNeedsAnUnobservedVMCell: a vm cell without an input pool
// records every golden run, so its faulty runs resume snapshots and
// stop where they rejoin. A profiled cell observes every instruction of
// every run, so the same cell profiled does neither, and neither does
// the tree backend.
func TestForkNeedsAnUnobservedVMCell(t *testing.T) {
	cfg := forkCfg(benchmarks.Swaptions, isa.AVX, passes.PureData)
	cfg.Inputs = 0
	if plain := runForkCell(t, cfg, false); plain.resumed == 0 || plain.converged == 0 {
		t.Fatalf("unprofiled cell: %d faulty runs resumed and %d converged, want some of each",
			plain.resumed, plain.converged)
	}
	profiled := cfg
	profiled.Profile = true
	tree := cfg
	tree.Backend = "tree"
	for name, c := range map[string]Config{"profiled": profiled, "tree": tree} {
		if r := runForkCell(t, c, false); r.resumed != 0 || r.converged != 0 {
			t.Fatalf("%s cell: %d faulty runs resumed and %d converged, want 0", name, r.resumed, r.converged)
		}
	}
}

// TestForkResumeEquivalence: a forking study checkpointed and resumed
// (the first half replayed through Cfg.Completed, as the vulfid journal
// does) reproduces the uninterrupted study byte-for-byte, at one worker
// and at four.
func TestForkResumeEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := forkCfg(benchmarks.Jacobi, isa.SSE, passes.PureData)
		cfg.Workers = workers
		full := runForkCell(t, cfg, false)
		if full.resumed == 0 {
			t.Fatal("uninterrupted study resumed no faulty run")
		}
		resumedCfg := cfg
		resumedCfg.Completed = map[int]*ExperimentResult{}
		total := cfg.Campaigns * cfg.Experiments
		for i := 0; i < total/2; i++ {
			resumedCfg.Completed[i] = full.results[i]
		}
		resumed := runForkCell(t, resumedCfg, false)
		if resumed.resumed == 0 {
			t.Fatal("resumed study forked no faulty run")
		}
		got, want := studyBytes(t, resumed.sr), studyBytes(t, full.sr)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers %d: resumed forking study diverged:\nresumed: %s\nfull:    %s",
				workers, got, want)
		}
	}
}

// TestForkBudgetStopsRecording: a fill made while the golden cache
// already holds more than forkBudget of saved states records no
// snapshots, and a fill below the budget does. Either way the fill
// keeps its post-Setup state, whose bytes its entry counts.
func TestForkBudgetStopsRecording(t *testing.T) {
	cfg := forkCfg(benchmarks.Swaptions, isa.AVX, passes.PureData)
	cfg.Metrics = telemetry.NewRegistry()
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.golden = newGoldenCache(cfg.Metrics)
	g, err := p.goldenRunFor(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.forks) == 0 || g.forkBytes <= g.start.Bytes(nil) {
		t.Fatalf("fill below the budget recorded %d snapshots (%d bytes)", len(g.forks), g.forkBytes)
	}
	full := &goldenRun{Out: []byte{0}, forkBytes: forkBudget + 1}
	if _, err := p.golden.get(2, func() (*goldenRun, error) { return full, nil }); err != nil {
		t.Fatal(err)
	}
	g, err = p.goldenRunFor(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.forks) != 0 || g.forkBytes != g.start.Bytes(nil) {
		t.Fatalf("fill over the budget recorded %d snapshots (%d bytes)", len(g.forks), g.forkBytes)
	}
	if g.spec == nil || g.start == nil || g.DynSites == 0 {
		t.Fatal("fill over the budget lost its golden run")
	}
}

// TestForkAtEverySnapshotBoundary drives the faulty half directly with
// targets on both sides of every snapshot's tag: the site the tag
// counts last (which the snapshot has already passed, so the run must
// start earlier, and may rejoin there) and the one after it (the first
// the snapshot can serve). Each forked run must end exactly as the same
// run from the start with no snapshot to resume or rejoin: output,
// trap, counters, detections, site count and injection record. Some
// forked runs must have stopped where they rejoined.
func TestForkAtEverySnapshotBoundary(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, cat := range []passes.Category{passes.PureData, passes.Control} {
		cfg := forkCfg(benchmarks.Jacobi, isa.AVX, cat)
		cfg.Detectors = true
		cfg.Metrics = reg
		p, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := p.goldenRunFor(7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.forks) < 2 {
			t.Fatalf("%s: %d snapshots recorded, want several", cat, len(g.forks))
		}
		whole := *g
		whole.forks = nil
		type end struct {
			out             string
			trap            interp.Trap
			dyn, vec, sites uint64
			detected        int
			record          core.InjectionRecord
		}
		run := func(g *goldenRun, target uint64) end {
			plan := &core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: 0x9E3779B97F4A7C15}
			x, out, tr, err := p.execFaulty(g, plan, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.release(x)
			e := end{out: string(out), dyn: x.It.DynInstrs, vec: x.It.DynVector,
				sites: plan.DynSites, detected: len(x.It.Detections), record: plan.Record}
			if tr != nil {
				e.trap = *tr
			}
			return e
		}
		for _, fp := range g.forks {
			for _, target := range []uint64{fp.sites, fp.sites + 1} {
				if target == 0 || target > g.DynSites {
					continue
				}
				if got, want := run(g, target), run(&whole, target); got != want {
					t.Fatalf("%s: target %d (snapshot tag %d):\nforked %+v\nwhole  %+v",
						cat, target, fp.sites, got, want)
				}
			}
		}
	}
	if reg.Counter("campaign.fork.converged").Value() == 0 {
		t.Fatal("no boundary run rejoined its golden run")
	}
}

// TestForkTimeline: on a forking cell the canonical span tree is the
// tree backend's but for the study's backend attribute (a forked faulty
// span still reports the run's full dyn_instrs), and the faulty spans
// and the campaign.faulty histogram come from one measurement.
func TestForkTimeline(t *testing.T) {
	cfg := forkCfg(benchmarks.Jacobi, isa.AVX, passes.PureData)
	cfg.Timeline = true
	forked := runForkCell(t, cfg, false)
	if forked.resumed == 0 {
		t.Fatal("no faulty run resumed from a snapshot")
	}
	treeCfg := cfg
	treeCfg.Backend = "tree"
	tree := runForkCell(t, treeCfg, false)
	canonical := func(tl *obs.Timeline) []byte {
		spans := tl.Canonical()
		for _, s := range spans {
			if s.Name == "study" {
				delete(s.Attrs, "backend")
			}
		}
		j, err := json.Marshal(spans)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	got, want := canonical(forked.sr.Timeline), canonical(tree.sr.Timeline)
	if !bytes.Equal(got, want) {
		t.Fatalf("forking changed the canonical span tree:\nforked: %s\ntree:   %s", got, want)
	}
	var n uint64
	var sum int64
	for _, s := range forked.sr.Timeline.Spans {
		if s.Name == "faulty" {
			n++
			sum += s.DurNS
		}
	}
	if h := forked.reg.Histogram("campaign.faulty").Snapshot(); h.Count != n || int64(h.Sum) != sum {
		t.Fatalf("campaign.faulty observed %d totalling %d ns; faulty spans %d totalling %d ns",
			h.Count, int64(h.Sum), n, sum)
	}
}

// setupRun runs p's cell from scratch, sharing no saved state: a fresh
// instance, Setup from inputSeed, then the entry function under plan
// and budget. It returns the instance with the run's comparable output
// and trap.
func setupRun(t *testing.T, p *Prepared, inputSeed int64, plan *core.Plan, budget uint64) (*exec.Instance, []byte, *interp.Trap) {
	t.Helper()
	x, err := exec.NewInstance(p.Res, interp.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if p.vmProg != nil {
		vm.Attach(x.It, p.vmProg)
	}
	core.AttachRuntime(x.It, plan)
	detect.AttachRuntime(x.It)
	spec, err := p.Cfg.Benchmark.Setup(x, rand.New(rand.NewSource(inputSeed)), p.Cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	out, tr := p.observe(x, spec, plan)
	return x, out, tr
}

// TestRestoreMatchesSetup keeps a reference for the faulty half that
// restores nothing. For every benchmark × ISA on both backends, each
// experiment is rebuilt by hand with setupRun: a count-only golden run,
// the fault drawn from its seed, and a faulty run of the same input
// built by a second Setup. Outcome, detection, injection record, trap
// (Dyn included) and DynSites must equal RunExperimentAt's, whose
// faulty runs restore the golden run's post-Setup state or resume its
// snapshots.
func TestRestoreMatchesSetup(t *testing.T) {
	cell := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			for _, backend := range []string{"tree", "vm"} {
				cfg := forkCfg(b, target, passes.AllCategories[cell%len(passes.AllCategories)])
				cfg.Backend = backend
				cfg.Detectors = cell%2 == 0
				cell++
				t.Run(cfg.String()+"/"+backend, func(t *testing.T) {
					p, err := Prepare(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < cfg.Experiments*cfg.Campaigns; i++ {
						gplan := &core.Plan{Mode: core.CountOnly}
						xg, gout, gtr := setupRun(t, p, cfg.InputSeed(i), gplan, 0)
						if gtr != nil {
							t.Fatalf("experiment %d: golden run trapped: %v", i, gtr)
						}
						want := ExperimentResult{DynSites: gplan.DynSites}
						if gplan.DynSites > 0 {
							frng := rand.New(rand.NewSource(cfg.ExperimentSeed(i) ^ 0x5DEECE66D))
							plan := &core.Plan{
								Mode:      core.InjectOnce,
								TargetDyn: 1 + uint64(frng.Int63n(int64(gplan.DynSites))),
								BitSeed:   uint64(frng.Int63()),
							}
							xf, fout, ftr := setupRun(t, p, cfg.InputSeed(i), plan, xg.It.DynInstrs*3+100_000)
							want.Record = plan.Record
							want.Detected = len(xf.It.Detections) > 0
							switch {
							case ftr != nil:
								want.Outcome, want.Trap = OutcomeCrash, ftr
							case !bytes.Equal(gout, fout):
								want.Outcome = OutcomeSDC
							}
						}
						got, err := p.RunExperimentAt(context.Background(), i)
						if err != nil {
							t.Fatal(err)
						}
						if got.Outcome != want.Outcome || got.Detected != want.Detected ||
							got.Record != want.Record || got.DynSites != want.DynSites {
							t.Fatalf("experiment %d:\ngot  %+v\nwant %+v", i, *got, want)
						}
						if (got.Trap == nil) != (want.Trap == nil) || got.Trap != nil && *got.Trap != *want.Trap {
							t.Fatalf("experiment %d: trap %+v, want %+v", i, got.Trap, want.Trap)
						}
					}
				})
			}
		}
	}
}

// TestSetupOncePerGoldenRun: Setup builds a golden run's input, and no
// faulty run calls it again. Through a counting copy of a benchmark, on
// both backends, with and without an input pool, the study's Setup
// calls must equal its golden executions: cache.misses with a pool, one
// per experiment without.
func TestSetupOncePerGoldenRun(t *testing.T) {
	for _, backend := range []string{"tree", "vm"} {
		for _, inputs := range []int{0, 2} {
			var calls atomic.Uint64
			b := *benchmarks.Jacobi
			b.Setup = func(x *exec.Instance, rng *rand.Rand, scale benchmarks.Scale) (*benchmarks.RunSpec, error) {
				calls.Add(1)
				return benchmarks.Jacobi.Setup(x, rng, scale)
			}
			cfg := forkCfg(&b, isa.AVX, passes.PureData)
			cfg.Backend, cfg.Inputs, cfg.Workers = backend, inputs, 2
			run := runForkCell(t, cfg, false)
			want := uint64(cfg.Experiments * cfg.Campaigns)
			if inputs > 0 {
				want = run.reg.Counter("cache.misses").Value()
			}
			if got := calls.Load(); got != want {
				t.Fatalf("%s, inputs %d: %d Setup calls for %d golden executions", backend, inputs, got, want)
			}
		}
	}
}
