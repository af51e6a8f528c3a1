// Package campaign implements the paper's fault-injection methodology
// (§IV-B, §IV-D): paired golden/faulty executions under the single-bit-
// flip fault model, SDC/Benign/Crash outcome classification, campaigns of
// independent experiments, and statistically qualified studies (95%
// confidence, ±3% margin of error) run on a worker pool.
package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/obs"
	"vulfi/internal/passes"
	"vulfi/internal/profile"
	"vulfi/internal/telemetry"
	"vulfi/internal/trace"
	"vulfi/internal/vm"
)

// Outcome classifies one fault-injection experiment (§IV-B).
type Outcome int

// Outcomes.
const (
	// OutcomeBenign: no difference between golden and faulty executions.
	OutcomeBenign Outcome = iota
	// OutcomeSDC: silent data corruption — outputs differ.
	OutcomeSDC
	// OutcomeCrash: the faulty run trapped (or hung past its budget).
	OutcomeCrash
)

var outcomeNames = map[Outcome]string{
	OutcomeBenign: "Benign", OutcomeSDC: "SDC", OutcomeCrash: "Crash",
}

// String returns the paper's outcome name.
func (o Outcome) String() string { return outcomeNames[o] }

// Config describes one study cell: a benchmark × ISA × site category.
type Config struct {
	Benchmark *benchmarks.Benchmark
	ISA       *isa.ISA
	Category  passes.Category
	Scale     benchmarks.Scale
	// Experiments per campaign (paper: 100).
	Experiments int
	// Campaigns to run (paper: 20).
	Campaigns int
	// Seed makes the whole study deterministic.
	Seed int64
	// Workers bounds experiment parallelism (0 = GOMAXPROCS).
	Workers int
	// Inputs selects the input-pool mode (§IV-B). 0 gives every
	// experiment its own freshly drawn input (the historical default);
	// K > 0 draws experiment i's input seed from a pool of K seeds
	// (index i mod K), so K = 1 is the paper-faithful fixed-input mode.
	// With a pool the golden half of each pair is memoized per input
	// seed (see goldenCache): the first 1,024 pool seeds to be filled are
	// kept for the cell's life, so their golden runs execute once each,
	// and any further seed re-runs its golden half on every use. The
	// cache is bypassed when Trace is on because divergence analysis
	// needs a live golden ring. Either way, on the vm backend with no
	// observer (neither Trace nor Profile), every golden run records
	// snapshots of its state; each faulty run resumes the latest one
	// before its fault site, skipping the shared prefix, and stops at the
	// first later one its state equals, skipping the shared suffix (see
	// fork.go). Caching and forking are observationally invisible:
	// results are byte-identical to an uncached run of the same pool and
	// to the tree backend.
	Inputs int
	// Detectors inserts the §III detectors before instrumentation.
	Detectors bool
	// DetectorEveryIteration moves the foreach check into the latch
	// (ablation; default is the paper's exit-only placement).
	DetectorEveryIteration bool
	// BroadcastDetector additionally inserts the §III-B checker.
	BroadcastDetector bool
	// MaskLoopDetector additionally inserts the mask-monotonicity
	// checker on varying-while loops (extension).
	MaskLoopDetector bool
	// WholeRegisterSites treats a vector L-value as a single fault site
	// instead of Vl lane sites (ablation of the paper's per-lane model).
	WholeRegisterSites bool
	// MaskOblivious counts masked-off lanes as live fault sites
	// (ablation of the paper's mask-aware accounting).
	MaskOblivious bool
	// Trace enables golden-vs-faulty divergence tracing: every experiment
	// records both executions into bounded ring buffers (trace.DefaultCap
	// entries each) and attaches a trace.Explanation to its result, and
	// the study folds every result's explanation into a propagation
	// profile (depth/spread/time-to-detection histograms on the study
	// registry plus a per-site SDC blame ranking). Tracing roughly
	// doubles per-experiment memory traffic; disabled it costs one nil
	// check per retired instruction.
	Trace bool
	// Atlas enables per-static-site outcome attribution: the study result
	// carries one SiteTally per instrumented static site (injections,
	// outcome split, dynamic activation counts from a deterministic
	// profiling pass over the input pool). Derived purely from the
	// experiment results and golden re-runs, so resumed studies produce
	// byte-identical tallies.
	Atlas bool
	// Backend selects the execution backend for every run of this cell.
	// "" or "tree" is the reference tree-walking interpreter; "vm"
	// lowers the prepared module to the internal/vm bytecode form
	// (pre-resolved operand slots, phi-eliminating edge moves, fused
	// superinstructions) and executes that instead. The two backends are
	// observably equivalent — outcomes, dynamic counts, trap provenance,
	// injection semantics and study JSON are byte-identical (pinned by
	// the differential suite in internal/vm and backend_test.go) — so
	// the knob trades nothing but speed. Validated by Config.Validate.
	Backend string
	// Timeline enables hierarchical span tracing: the study records a
	// span tree (study → experiment → golden/faulty/compare, plus
	// compile and golden-cache-fill spans) into per-worker lanes and the
	// result carries an obs.Timeline exportable as JSONL or Chrome
	// trace-event JSON. Span IDs derive from the deterministic seed
	// schedule, so the span *tree* (IDs, parents, names, attributes) is
	// identical across runs and worker counts; lane assignment and
	// timestamps are scheduling-dependent (obs.Timeline.Canonical
	// projects the invariant subset). Disabled, the study output is
	// byte-identical to a timeline-unaware build's.
	Timeline bool
	// TraceParent, when non-empty, is a W3C trace-context traceparent
	// header ("00-<32hex>-<16hex>-01"): the study adopts its trace ID
	// and parents the study root span under the given span, so a remote
	// study's spans nest into the submitting client's trace. Validated
	// by Config.Validate; meaningful only with Timeline.
	TraceParent string

	// Profile enables the execution profiler: every interpreter run
	// feeds a per-run probe (per-opcode counts and wall-time
	// attribution, per-site hot ranking, opcode-pair mining), the study
	// aggregates them, and the result carries a HotProfile whose phase
	// walls and exp/s are read off the study's spans (a profiled cell
	// always records spans; StudyResult.Timeline is still set only with
	// Timeline). Disabled it costs one nil check per accounted
	// instruction (the shared interp.Observer seam); enabled it adds a
	// timestamp per instruction, so profiled wall times are not
	// comparable to unprofiled ones. Counts are deterministic for a
	// configuration; wall-time fields are not. Golden-cache hits and
	// checkpoint-replayed experiments never re-execute and are therefore
	// absent from the profile.
	Profile bool

	// ShardStart/ShardEnd restrict execution to experiment indices in
	// the half-open range [ShardStart, ShardEnd) of the deterministic
	// schedule — one shard of the study. Out-of-range indices are
	// neither executed nor aggregated (campaigns entirely outside the
	// range report empty results), so a shard's StudyResult covers only
	// its range. A coordinator merges shards by replaying their
	// checkpointed triples through Completed on an unsharded
	// configuration, which reproduces the single-node aggregation
	// exactly — the per-experiment triples are the only execution state.
	// ShardEnd == 0 means no restriction. Validated (after the count
	// defaults apply) by Config.Validate.
	ShardStart int
	ShardEnd   int

	// Metrics receives this study's telemetry (phase histograms, outcome
	// counters, interpreter counters). Nil uses the process-wide default
	// registry; concurrent studies that must not interleave should each
	// pass their own registry.
	Metrics *telemetry.Registry
	// OnStart, when non-nil, is invoked by the study worker pool just
	// before experiment index begins executing on the given worker
	// (liveness hook: paired with OnResult it brackets every in-flight
	// experiment, which is exactly what a stall watchdog needs).
	// Replayed Completed entries never fire it. Called from worker
	// goroutines; must be safe for concurrent use.
	OnStart func(index, worker int)
	// Heartbeat, when non-nil, receives liveness pulses from the worker
	// pool's executing interpreters on the budget-check schedule (after
	// every phi block and every 1024th retired instruction). It must be
	// cheap and non-blocking — an atomic store per call is the intended
	// shape — because it sits close to the execution hot path. Called
	// from worker goroutines.
	Heartbeat func(worker int)
	// OnResult, when non-nil, is invoked after every freshly executed
	// experiment with its index, seed and result (checkpoint hook: the
	// triple is exactly what a journal needs to replay the experiment on
	// resume). Replayed Completed entries do not fire it. Called from
	// worker goroutines; must be safe for concurrent use.
	OnResult func(index int, seed int64, r *ExperimentResult)
	// Completed carries results replayed from a checkpoint, keyed by
	// experiment index. RunStudy merges them verbatim instead of
	// re-running those indices; combined with the deterministic
	// ExperimentSeed schedule this makes an interrupted study resumable
	// with identical statistics. Replayed results bypass the telemetry
	// registry (their phases were recorded when they originally ran).
	Completed map[int]*ExperimentResult
}

func (c Config) String() string {
	return fmt.Sprintf("%s/%s/%s", c.Benchmark.Name, c.ISA.Name, c.Category)
}

// ExperimentResult is the outcome of one golden/faulty pair.
type ExperimentResult struct {
	Outcome  Outcome
	Detected bool
	// Hang marks budget-exceeded faulty runs (reported under Crash).
	Hang bool
	Trap *interp.Trap
	// Record is the performed injection (zero if the target site was
	// never reached dynamically).
	Record core.InjectionRecord
	// DynSites is N, the dynamic fault-site count of the golden run.
	DynSites uint64
	// GoldenDynInstrs is the golden run's dynamic instruction count.
	GoldenDynInstrs uint64
	InputLabel      string
	// Wall is the experiment's total wall time (golden + faulty +
	// compare); FaultyWall is the faulty run's share.
	Wall       time.Duration
	FaultyWall time.Duration
	// Explanation is the divergence analysis of this experiment (nil
	// unless the study ran with Config.Trace). It is JSON-safe and
	// round-trips through the service journal.
	Explanation *trace.Explanation
}

// Prepared is a compiled, instrumented study cell ready to run
// experiments. The module is immutable after preparation, so experiments
// can run concurrently.
type Prepared struct {
	Cfg   Config
	Res   *codegen.Result
	Inst  *core.Instrumentation
	Sites []*core.Site

	// prof is the execution-profile collector (nil unless Cfg.Profile).
	prof *profile.Collector

	// obs is the span collector (nil unless Cfg.Timeline or
	// Cfg.Profile): one unsynchronized lane per worker plus a
	// mutex-guarded control lane, merged into a Timeline at study end.
	// Its spans are the cell's only clock besides the phase histograms,
	// which observe the same measurements.
	obs *obs.Collector

	reg *telemetry.Registry
	mx  cellMetrics

	// golden memoizes golden runs per input seed (nil unless the cell
	// has an input pool and tracing is off).
	golden *goldenCache
	// vmProg is the instrumented module compiled to bytecode (nil unless
	// Cfg.Backend selects the vm backend). One immutable program is
	// shared by every instance of the cell; each instance gets its own
	// vm.Machine over it.
	vmProg *vm.Program
	// pool recycles reset interpreter instances across experiments.
	pool sync.Pool
}

// cellMetrics caches the study cell's instruments so the per-experiment
// path performs no registry lookups.
type cellMetrics struct {
	golden, faulty, compare, wall      *telemetry.Histogram
	sdc, benign, crash, hang, detected *telemetry.Counter
	experiments                        *telemetry.Counter
	// Interpreter counters, published once per run by observe.
	// instrs counts each run's full DynInstrs, forked or not; the
	// instructions actually executed are instrs - forkSkipped.
	instrs, vectorInstrs, siteVisits, traps *telemetry.Counter
	// Golden-state forking: faulty runs started from a snapshot, faulty
	// runs stopped where they rejoined their golden run, and the
	// instructions neither executed: the prefix a resumed run skipped
	// and the tail a stopped run did not run.
	forkResumed, forkConverged, forkSkipped *telemetry.Counter
}

func newCellMetrics(reg *telemetry.Registry) cellMetrics {
	return cellMetrics{
		golden:      reg.Histogram("campaign.golden"),
		faulty:      reg.Histogram("campaign.faulty"),
		compare:     reg.Histogram("campaign.compare"),
		wall:        reg.Histogram("campaign.experiment"),
		sdc:         reg.Counter("campaign.outcome.sdc"),
		benign:      reg.Counter("campaign.outcome.benign"),
		crash:       reg.Counter("campaign.outcome.crash"),
		hang:        reg.Counter("campaign.outcome.hang"),
		detected:    reg.Counter("campaign.detected"),
		experiments: reg.Counter("campaign.experiments"),

		instrs:       reg.Counter("interp.instrs"),
		vectorInstrs: reg.Counter("interp.vector_instrs"),
		siteVisits:   reg.Counter("interp.site_visits"),
		traps:        reg.Counter("interp.traps"),

		forkResumed:   reg.Counter("campaign.fork.resumed"),
		forkConverged: reg.Counter("campaign.fork.converged"),
		forkSkipped:   reg.Counter("campaign.fork.skipped_instrs"),
	}
}

// registry resolves the study's registry (default when unconfigured).
func (c Config) registry() *telemetry.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return telemetry.Default()
}

// workerCount resolves Workers (0 = GOMAXPROCS).
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Prepare compiles the benchmark for the configured ISA, synthesizes
// detectors when requested, and instruments the selected site category.
// The compile+instrument wall time is measured once: it lands in the
// study registry's "campaign.prepare" histogram (failed preparations
// included) and, on a traced or profiled cell, as the compile span.
func Prepare(cfg Config) (*Prepared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.registry()
	start := time.Now()
	p, err := compileCell(cfg, reg)
	wall := time.Since(start)
	reg.Histogram("campaign.prepare").Observe(wall)
	if err != nil {
		return nil, err
	}
	if cfg.Profile {
		p.prof = profile.NewCollector()
	}
	if cfg.Timeline || cfg.Profile {
		p.obs = NewSpanCollector(cfg, cfg.workerCount(), start)
		p.obs.Ctl("compile", p.spanID("compile", 0), p.obs.Root(), start, wall, nil)
	}
	return p, nil
}

// compileCell is Prepare's timed part: compile, detector synthesis,
// instrumentation and the per-cell execution state.
func compileCell(cfg Config, reg *telemetry.Registry) (*Prepared, error) {
	res, err := codegen.Compile(compileProgram(cfg.Benchmark), cfg.ISA,
		cfg.Benchmark.Name)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", cfg.Benchmark.Name, err)
	}
	pm := &passes.Manager{Verify: true}
	if cfg.Detectors {
		pm.Add(&detect.ForeachInvariantPass{
			EveryIteration: cfg.DetectorEveryIteration,
		})
		if cfg.BroadcastDetector {
			pm.Add(&detect.UniformBroadcastPass{})
		}
		if cfg.MaskLoopDetector {
			pm.Add(&detect.MaskMonotonicityPass{})
		}
	}
	inst := &core.Instrumentation{}
	ip := &core.InstrumentPass{Category: cfg.Category, Out: inst}
	ip.WholeRegister = cfg.WholeRegisterSites
	ip.MaskOblivious = cfg.MaskOblivious
	pm.Add(ip)
	if err := pm.Run(res.Module); err != nil {
		return nil, err
	}
	p := &Prepared{
		Cfg: cfg, Res: res, Inst: inst, Sites: inst.Sites,
		reg: reg, mx: newCellMetrics(reg),
	}
	if !cfg.Trace && cfg.Inputs > 0 {
		p.golden = newGoldenCache(reg)
	}
	if cfg.Backend == "vm" {
		p.vmProg = vm.Compile(res.Module)
	}
	return p, nil
}

// newInstance builds (or reuses) an interpreter instance with the ISA
// intrinsics, the detector runtime and an injection plan attached, set
// up for one run under opts (budget, observer, pulse). Instances come
// from a per-cell pool: experiments return them with release once every
// observable product has been copied out. The reset path re-binds only
// the plan-dependent injection runtime; the plan-independent ISA and
// detector externs survive the reset.
func (p *Prepared) newInstance(plan *core.Plan, opts interp.Options) (*exec.Instance, error) {
	if v := p.pool.Get(); v != nil {
		x := v.(*exec.Instance)
		if err := x.Reset(opts); err == nil {
			core.AttachRuntime(x.It, plan)
			return x, nil
		}
	}
	x, err := exec.NewInstance(p.Res, opts)
	if err != nil {
		return nil, err
	}
	if p.vmProg != nil {
		// Engines survive Reset, so pooled instances keep their Machine;
		// only fresh instances attach one (per-instance, over the shared
		// compiled program).
		vm.Attach(x.It, p.vmProg)
	}
	core.AttachRuntime(x.It, plan)
	detect.AttachRuntime(x.It)
	return x, nil
}

// release returns an instance to the reuse pool. Callers must not touch
// the instance afterwards: the next newInstance wipes its state.
func (p *Prepared) release(x *exec.Instance) { p.pool.Put(x) }

// runObserver builds one run's execution observer from the cell's Trace
// and Profile settings, returning it with the trace ring and profile
// probe behind it (each nil when off).
func (p *Prepared) runObserver() (interp.Observer, *trace.Ring, *profile.Probe) {
	var ring *trace.Ring
	var probe *profile.Probe
	if p.Cfg.Trace {
		ring = trace.NewRing(trace.DefaultCap)
	}
	if p.prof != nil {
		probe = p.prof.Probe()
	}
	switch {
	case ring != nil && probe != nil:
		return tracedProbe{ring, probe}, ring, probe
	case ring != nil:
		return ring, ring, nil
	case probe != nil:
		return probe, nil, probe
	}
	return nil, nil, nil
}

// tracedProbe observes a run that is both traced and profiled: the
// probe accounts, the ring records retirements.
type tracedProbe struct {
	ring  *trace.Ring
	probe *profile.Probe
}

func (o tracedProbe) Account(in *ir.Instr) { o.probe.Account(in) }

func (o tracedProbe) Retire(in *ir.Instr, dyn uint64, v interp.Value) {
	o.ring.Retire(in, dyn, v)
}

// observe runs the entry function and returns the run's output (see
// output). Golden and atlas-visit runs execute through here; a faulty
// run starts from a saved golden state instead (see execFaulty).
func (p *Prepared) observe(x *exec.Instance, spec *benchmarks.RunSpec, plan *core.Plan) ([]byte, *interp.Trap) {
	_, tr := x.CallExport(p.Cfg.Benchmark.Entry, spec.Args...)
	return p.output(x, spec, plan, tr)
}

// publish adds a finished run's interpreter counters to the cell
// registry. Every golden, faulty and atlas-visit run is published once.
func (p *Prepared) publish(x *exec.Instance, plan *core.Plan, tr *interp.Trap) {
	p.mx.instrs.Add(x.It.DynInstrs)
	p.mx.vectorInstrs.Add(x.It.DynVector)
	p.mx.siteVisits.Add(plan.DynSites)
	if tr != nil {
		p.mx.traps.Inc()
	}
}

// output publishes a run that ended with tr and extracts its comparable
// output: the declared output regions plus the program output stream.
func (p *Prepared) output(x *exec.Instance, spec *benchmarks.RunSpec, plan *core.Plan, tr *interp.Trap) ([]byte, *interp.Trap) {
	p.publish(x, plan, tr)
	if tr != nil {
		return nil, tr
	}
	var buf bytes.Buffer
	for _, rg := range spec.Outputs {
		b, err := x.ReadRaw(rg.Addr, rg.Size)
		if err != nil {
			return nil, &interp.Trap{Kind: interp.TrapHalt, Msg: err.Error()}
		}
		if rg.Quantize > 0 {
			b = quantizeF32(b, rg.Quantize)
		}
		buf.Write(b)
	}
	buf.Write(x.It.Output.Bytes())
	return buf.Bytes(), nil
}

// quantizeF32 rounds each float32 cell of b to the given step, modeling
// limited-precision program output. NaNs canonicalize to one pattern.
func quantizeF32(b []byte, step float32) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	for i := 0; i+4 <= len(out); i += 4 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(out[i:]))
		var q float32
		switch {
		case v != v: // NaN
			q = float32(math.NaN())
		default:
			q = float32(math.Round(float64(v/step))) * step
		}
		binary.LittleEndian.PutUint32(out[i:], math.Float32bits(q))
	}
	return out
}

// goldenRun is the product of one golden counting run: everything the
// faulty half of an experiment needs. With an input pool configured it
// is memoized per input seed (see goldenCache). The ring is only set in
// trace mode, which bypasses the cache.
type goldenRun struct {
	Out       []byte
	DynSites  uint64
	DynInstrs uint64
	// dynVector and the detections are the rest of how the run ended,
	// which a faulty run that rejoins it reports (see rejoin).
	dynVector     uint64
	detections    []string
	detectionDyns []uint64
	ring          *trace.Ring
	// spec is the invocation Setup returned and start the instance state
	// right after Setup: a faulty run that resumes no snapshot restores
	// start and calls the entry function with spec's arguments.
	spec  *benchmarks.RunSpec
	start *interp.State
	// forks are the run's snapshots in execution order (nil unless it was
	// recorded, see recordForks). forkBytes is the heap footprint of
	// start and the snapshots.
	forks     []forkPoint
	forkBytes int64
}

// execGolden performs one golden counting run for the given input seed.
// It is the only place a faulty run's input is built: Setup runs once,
// and the state it leaves is saved for the faulty runs to restore.
func (p *Prepared) execGolden(inputSeed int64, wc *workerCtx) (*goldenRun, error) {
	goldenPlan := &core.Plan{Mode: core.CountOnly}
	o, gRing, probe := p.runObserver()
	xg, err := p.newInstance(goldenPlan, interp.Options{Observer: o, Pulse: wc.pulse()})
	if err != nil {
		return nil, err
	}
	if probe != nil {
		defer p.prof.Add("golden", probe)
	}
	spec, err := p.Cfg.Benchmark.Setup(xg, rand.New(rand.NewSource(inputSeed)), p.Cfg.Scale)
	if err != nil {
		return nil, err
	}
	start := xg.It.SaveState(nil)
	rec := p.recordForks(xg, goldenPlan)
	out, tr := p.observe(xg, spec, goldenPlan)
	if rec != nil {
		machine(xg).SetRecorder(nil)
	}
	if tr != nil {
		return nil, fmt.Errorf("golden run trapped (%s, input %s): %w",
			p.Cfg, spec.Label, tr)
	}
	g := &goldenRun{
		Out:           out,
		DynSites:      goldenPlan.DynSites,
		DynInstrs:     xg.It.DynInstrs,
		dynVector:     xg.It.DynVector,
		detections:    slices.Clone(xg.It.Detections),
		detectionDyns: slices.Clone(xg.It.DetectionDyns),
		ring:          gRing,
		spec:          spec,
		start:         start,
		forkBytes:     start.Bytes(nil),
	}
	if rec != nil {
		g.forks = rec.points
		g.forkBytes += rec.bytes()
	}
	p.release(xg)
	return g, nil
}

// goldenRunFor resolves the golden half of an experiment, through the
// memoization cache when the cell carries one. A cache fill performed
// by this caller lands as a "cache-fill" span on its lane: the span's
// ID derives from the input seed (not the triggering experiment, which
// is scheduling-dependent), so refills of a seed the full cache did not
// keep repeat the same identity and collapse in the canonical span tree.
func (p *Prepared) goldenRunFor(inputSeed int64, wc *workerCtx) (*goldenRun, error) {
	if p.golden == nil {
		return p.execGolden(inputSeed, wc)
	}
	// fillStart stays zero unless this caller was the singleflight
	// leader: the fill closure only runs on the leader's goroutine.
	var fillStart time.Time
	var fillDur time.Duration
	g, err := p.golden.get(inputSeed, func() (*goldenRun, error) {
		fillStart = time.Now()
		g, err := p.execGolden(inputSeed, wc)
		fillDur = time.Since(fillStart)
		return g, err
	})
	if err == nil && !fillStart.IsZero() && wc.tracing() {
		wc.lane.Record("cache-fill", p.spanID("cache-fill", inputSeed),
			p.obs.Root(), fillStart, fillDur, map[string]string{
				"input_seed": strconv.FormatInt(inputSeed, 10),
			})
	}
	return g, err
}

// RunExperiment performs one paired experiment with seed driving both
// the input generation and the fault selection — the historical
// single-seed form, equivalent to an experiment of a study without an
// input pool. Studies with input pools go through RunExperimentAt.
func (p *Prepared) RunExperiment(ctx context.Context, seed int64) (*ExperimentResult, error) {
	return p.runExperiment(ctx, seed, seed, nil)
}

// RunExperimentAt runs the experiment at index i of the deterministic
// study schedule: fault seed ExperimentSeed(i), input seed InputSeed(i).
// Direct calls run outside the study worker pool, so they record no
// timeline spans and emit no heartbeats.
func (p *Prepared) RunExperimentAt(ctx context.Context, i int) (*ExperimentResult, error) {
	return p.runExperimentOn(ctx, i, nil)
}

// runExperimentOn is RunExperimentAt with a worker context attached:
// spans land on the worker's lane and heartbeats on its pulse.
func (p *Prepared) runExperimentOn(ctx context.Context, i int, wc *workerCtx) (*ExperimentResult, error) {
	return p.runExperiment(ctx, p.Cfg.ExperimentSeed(i), p.Cfg.InputSeed(i), wc)
}

// runExperiment performs one paired experiment (§IV-B execution
// strategy): a golden counting run that records the output and the
// dynamic fault-site count N (memoized per input seed when the cell has
// an input pool), then a faulty run with one bit flipped at a uniformly
// chosen dynamic site. Each phase (golden, faulty, compare, and the
// whole experiment) is measured once: the study registry's histogram
// observes the measurement and the worker's lane records it as the
// phase's span. Outcome counters land in the registry too. The fault
// schedule depends only on seed; the program input only on inputSeed.
//
// Cancellation is checked only on entry: a started experiment runs to
// completion, so a cancelled study never records a half-finished pair.
func (p *Prepared) runExperiment(ctx context.Context, seed, inputSeed int64, wc *workerCtx) (*ExperimentResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := p.goldenRunFor(inputSeed, wc)
	if err != nil {
		return nil, err
	}
	goldenWall := time.Since(start)
	p.mx.golden.Observe(goldenWall)
	var expID string
	if wc.tracing() {
		expID = p.spanID("experiment", seed)
		wc.lane.Record("golden", p.spanID("golden", seed), expID,
			start, goldenWall, map[string]string{
				"dyn_instrs": strconv.FormatUint(g.DynInstrs, 10),
			})
	}
	res := &ExperimentResult{
		DynSites:        g.DynSites,
		GoldenDynInstrs: g.DynInstrs,
		InputLabel:      g.spec.Label,
	}
	if g.DynSites == 0 {
		// No dynamic site in this category was ever reached: nothing to
		// corrupt; the experiment is vacuously benign.
		res.Outcome = OutcomeBenign
		res.Wall = time.Since(start)
		p.finishExperiment(res)
		wc.expSpan(p, expID, seed, start, res)
		return res, nil
	}

	// Fault selection: uniform over the N dynamic sites (§II-B), then a
	// uniform bit position within the chosen site's width.
	frng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	faultPlan := &core.Plan{
		Mode:      core.InjectOnce,
		TargetDyn: 1 + uint64(frng.Int63n(int64(g.DynSites))),
		BitSeed:   uint64(frng.Int63()),
	}

	faultyStart := time.Now()
	o, fRing, fProbe := p.runObserver()
	xf, faultyOut, ftr, err := p.execFaulty(g, faultPlan, o, wc)
	if err != nil {
		return nil, err
	}
	res.FaultyWall = time.Since(faultyStart)
	p.mx.faulty.Observe(res.FaultyWall)
	if fProbe != nil {
		p.prof.Add("faulty", fProbe)
	}
	if wc.tracing() {
		wc.lane.Record("faulty", p.spanID("faulty", seed), expID,
			faultyStart, res.FaultyWall, map[string]string{
				"dyn_instrs": strconv.FormatUint(xf.It.DynInstrs, 10),
			})
	}

	compareStart := time.Now()
	res.Detected = len(xf.It.Detections) > 0
	res.Record = faultPlan.Record
	switch {
	case ftr != nil:
		res.Outcome = OutcomeCrash
		res.Trap = ftr
		res.Hang = ftr.Kind == interp.TrapBudget
	case !bytes.Equal(g.Out, faultyOut):
		res.Outcome = OutcomeSDC
	default:
		res.Outcome = OutcomeBenign
	}
	if p.Cfg.Trace {
		res.Explanation = p.explain(g.ring, fRing, res, xf, ftr)
	}
	compareWall := time.Since(compareStart)
	p.mx.compare.Observe(compareWall)
	if wc.tracing() {
		wc.lane.Record("compare", p.spanID("compare", seed), expID,
			compareStart, compareWall, nil)
	}
	p.release(xf)
	res.Wall = time.Since(start)
	p.finishExperiment(res)
	wc.expSpan(p, expID, seed, start, res)
	return res, nil
}

// execFaulty performs the faulty half of an experiment under plan: same
// input as the golden run g, bounded by a hang budget. It returns the
// instance, which the caller reads and then releases, with the run's
// output and trap. Until its flip a faulty run is its golden run, so it
// resumes g's latest snapshot before the target site when there is one
// (see fork.go), and otherwise restores g's post-Setup state and calls
// the entry function. A run whose state equals one of g's later
// snapshots stops there and reports g's ending (see rejoin).
func (p *Prepared) execFaulty(g *goldenRun, plan *core.Plan, o interp.Observer, wc *workerCtx) (*exec.Instance, []byte, *interp.Trap, error) {
	budget := g.DynInstrs*3 + 100_000
	x, err := p.newInstance(plan, interp.Options{Budget: budget, Observer: o, Pulse: wc.pulse()})
	if err != nil {
		return nil, nil, nil, err
	}
	from, ahead := g.forkFor(plan.TargetDyn)
	j := joinFor(x, ahead)
	var tr *interp.Trap
	if from != nil {
		plan.DynSites = from.sites
		p.mx.forkResumed.Inc()
		p.mx.forkSkipped.Add(from.snap.DynInstrs())
		_, tr = machine(x).Resume(x.It, from.snap)
	} else {
		x.It.RestoreState(g.start)
		_, tr = x.CallExport(p.Cfg.Benchmark.Entry, g.spec.Args...)
	}
	if j != nil {
		machine(x).SetJoin(nil)
		for _, fp := range ahead {
			if fp.snap == j.At {
				p.rejoin(x, g, plan, fp.sites)
				return x, g.Out, nil, nil
			}
		}
	}
	out, tr := p.output(x, g.spec, plan, tr)
	return x, out, tr, nil
}

// finishExperiment records an experiment's outcome counters and total
// wall time.
func (p *Prepared) finishExperiment(r *ExperimentResult) {
	p.mx.experiments.Inc()
	p.mx.wall.Observe(r.Wall)
	switch r.Outcome {
	case OutcomeSDC:
		p.mx.sdc.Inc()
	case OutcomeBenign:
		p.mx.benign.Inc()
	case OutcomeCrash:
		p.mx.crash.Inc()
		if r.Hang {
			p.mx.hang.Inc()
		}
	}
	if r.Detected {
		p.mx.detected.Inc()
	}
}
