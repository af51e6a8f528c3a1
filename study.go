package vulfi

import (
	"context"
	"fmt"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
)

// Study is a validated, ready-to-run study cell built by NewStudy. The
// configuration is frozen at construction: Run can be called multiple
// times (and concurrently) and each call executes the same
// deterministic schedule.
type Study struct {
	cfg campaign.Config
}

// StudyOption configures one aspect of a study. Options are applied in
// order; the last write to a field wins.
type StudyOption func(*campaign.Config) error

// NewStudy builds a study from functional options and validates the
// result through campaign.Config.Validate — the same gate the CLIs and
// the vulfid service use — so an invalid combination fails here, before
// any compilation:
//
//	study, err := vulfi.NewStudy(
//		vulfi.WithBenchmarkName("Blackscholes"),
//		vulfi.WithISA(vulfi.AVX),
//		vulfi.WithCategory(vulfi.Control),
//		vulfi.WithInputs(8),
//	)
//	sr, err := study.Run(context.Background())
func NewStudy(opts ...StudyOption) (*Study, error) {
	var cfg campaign.Config
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Study{cfg: cfg}, nil
}

// Config returns a copy of the study's validated configuration.
func (s *Study) Config() Config { return s.cfg }

// Run executes the study's campaigns on a worker pool; cancelling ctx
// stops it cooperatively between experiments.
func (s *Study) Run(ctx context.Context) (*StudyResult, error) {
	return campaign.RunStudy(ctx, s.cfg)
}

// Prepare compiles and instruments the cell for manual experiment
// control (single experiments, custom schedules).
func (s *Study) Prepare() (*campaign.Prepared, error) {
	return campaign.Prepare(s.cfg)
}

// WithBenchmark selects the workload to study.
func WithBenchmark(b *Benchmark) StudyOption {
	return func(c *campaign.Config) error {
		if b == nil {
			return fmt.Errorf("vulfi: WithBenchmark(nil)")
		}
		c.Benchmark = b
		return nil
	}
}

// WithBenchmarkName selects the workload by its Table I name.
func WithBenchmarkName(name string) StudyOption {
	return func(c *campaign.Config) error {
		b := benchmarks.ByName(name)
		if b == nil {
			return fmt.Errorf("vulfi: unknown benchmark %q", name)
		}
		c.Benchmark = b
		return nil
	}
}

// WithISA selects the target vector ISA (vulfi.AVX or vulfi.SSE).
func WithISA(target *ISA) StudyOption {
	return func(c *campaign.Config) error {
		if target == nil {
			return fmt.Errorf("vulfi: WithISA(nil)")
		}
		c.ISA = target
		return nil
	}
}

// WithISAName selects the target ISA by name ("AVX", "SSE").
func WithISAName(name string) StudyOption {
	return func(c *campaign.Config) error {
		target := isa.ByName(name)
		if target == nil {
			return fmt.Errorf("vulfi: unknown ISA %q (AVX, SSE)", name)
		}
		c.ISA = target
		return nil
	}
}

// WithCategory selects the fault-site category (§II-C).
func WithCategory(cat Category) StudyOption {
	return func(c *campaign.Config) error { c.Category = cat; return nil }
}

// WithScale selects the input-size regime.
func WithScale(s Scale) StudyOption {
	return func(c *campaign.Config) error { c.Scale = s; return nil }
}

// WithExperiments sets the experiments per campaign (paper: 100).
func WithExperiments(n int) StudyOption {
	return func(c *campaign.Config) error { c.Experiments = n; return nil }
}

// WithCampaigns sets the campaign count (paper: 20).
func WithCampaigns(n int) StudyOption {
	return func(c *campaign.Config) error { c.Campaigns = n; return nil }
}

// WithSeed makes the whole study deterministic under one seed.
func WithSeed(seed int64) StudyOption {
	return func(c *campaign.Config) error { c.Seed = seed; return nil }
}

// WithWorkers bounds experiment parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) StudyOption {
	return func(c *campaign.Config) error { c.Workers = n; return nil }
}

// WithInputs sets the input-pool size K: experiment i draws its input
// from a pool of K seeds (i mod K), enabling golden-run memoization.
// K = 1 is the paper-faithful fixed-input mode; 0 (the default) draws a
// fresh input per experiment and disables the cache.
func WithInputs(k int) StudyOption {
	return func(c *campaign.Config) error { c.Inputs = k; return nil }
}

// WithDetectors inserts the §III foreach-invariant detectors.
func WithDetectors() StudyOption {
	return func(c *campaign.Config) error { c.Detectors = true; return nil }
}

// WithDetectorEveryIteration moves the foreach check into the loop
// latch (ablation; the paper places it at the exit).
func WithDetectorEveryIteration() StudyOption {
	return func(c *campaign.Config) error { c.DetectorEveryIteration = true; return nil }
}

// WithBroadcastDetector additionally inserts the §III-B checker.
func WithBroadcastDetector() StudyOption {
	return func(c *campaign.Config) error { c.BroadcastDetector = true; return nil }
}

// WithMaskLoopDetector additionally inserts the mask-monotonicity
// checker on varying-while loops.
func WithMaskLoopDetector() StudyOption {
	return func(c *campaign.Config) error { c.MaskLoopDetector = true; return nil }
}

// WithWholeRegisterSites treats a vector L-value as one fault site
// instead of per-lane sites (ablation).
func WithWholeRegisterSites() StudyOption {
	return func(c *campaign.Config) error { c.WholeRegisterSites = true; return nil }
}

// WithMaskOblivious counts masked-off lanes as live fault sites
// (ablation).
func WithMaskOblivious() StudyOption {
	return func(c *campaign.Config) error { c.MaskOblivious = true; return nil }
}

// WithTrace enables golden-vs-faulty divergence tracing (bypasses the
// golden-run cache).
func WithTrace() StudyOption {
	return func(c *campaign.Config) error { c.Trace = true; return nil }
}

// WithAtlas attributes every outcome to its static fault site: the
// study result carries a per-site tally table (StudyResult.Sites) with
// activation counts and outcome splits, ready for atlas.New.
func WithAtlas() StudyOption {
	return func(c *campaign.Config) error { c.Atlas = true; return nil }
}

// WithBackend selects the execution backend: "tree" (or "") is the
// reference tree-walking interpreter, "vm" compiles the prepared cell
// to the internal/vm bytecode form. The backends are observably
// equivalent — identical outcomes, counts, traps and study JSON — so
// the choice only affects throughput. Validation happens in NewStudy.
func WithBackend(name string) StudyOption {
	return func(c *campaign.Config) error { c.Backend = name; return nil }
}

// WithProfile enables the execution profiler: the study result carries
// a hot-path profile (hot opcodes, opcode pairs, hot sites, and the
// phase breakdown and exp/s read off the study's spans). Profiling
// timestamps every interpreted instruction, so profiled wall times are
// not comparable to unprofiled runs.
func WithProfile() StudyOption {
	return func(c *campaign.Config) error { c.Profile = true; return nil }
}

// WithTimeline enables hierarchical span tracing: the study result
// carries an obs.Timeline (study → experiment → golden/faulty/compare
// spans, one lane per worker) exportable as Chrome trace-event JSON.
func WithTimeline() StudyOption {
	return func(c *campaign.Config) error { c.Timeline = true; return nil }
}

// WithTraceParent nests the study's timeline under an existing W3C
// trace-context span: tp is a traceparent header value
// ("00-<32hex>-<16hex>-01") whose trace ID the study adopts and whose
// span ID parents the study's root span. Malformed values are rejected
// by NewStudy's validation.
func WithTraceParent(tp string) StudyOption {
	return func(c *campaign.Config) error { c.TraceParent = tp; return nil }
}

// WithShardRange restricts execution to experiment indices in the
// half-open range [start, end) of the deterministic schedule — one
// shard of the study. Out-of-range indices neither execute nor
// aggregate, so the shard's result covers only its range; a
// coordinator merges shards by replaying their checkpointed triples
// through the Completed map of an unsharded configuration, which
// reproduces the single-node aggregation exactly. end must be positive
// and within the schedule; NewStudy validates the range.
func WithShardRange(start, end int) StudyOption {
	return func(c *campaign.Config) error {
		c.ShardStart, c.ShardEnd = start, end
		return nil
	}
}

// WithConfig applies fn to the underlying configuration — the escape
// hatch for fields without a dedicated option (telemetry sinks,
// checkpoint hooks, replay maps).
func WithConfig(fn func(*Config)) StudyOption {
	return func(c *campaign.Config) error {
		if fn != nil {
			fn(c)
		}
		return nil
	}
}
