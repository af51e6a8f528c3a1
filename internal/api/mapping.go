package api

import (
	"fmt"
	"strings"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
)

// Config resolves the spec into a validated, normalized study
// configuration (telemetry sinks and checkpoint hooks unset). The named
// knobs resolve first, in wire order — benchmark, isa, category, scale,
// backend — the other fields copy across as they are, and then
// campaign.Config.Validate, the gate every entry point shares, checks
// the result and applies its defaults. So a spec rejected on the wire
// is rejected identically in code. "shards" never reaches a study: the
// coordinator consumes it to plan shard ranges, then dispatches specs
// with shards cleared. TestEverySpecFieldReachesConfig keeps this
// mapping exhaustive.
func (s Spec) Config() (campaign.Config, error) {
	b := benchmarks.ByName(s.Benchmark)
	if b == nil {
		return campaign.Config{}, fmt.Errorf("vulfi: unknown benchmark %q", s.Benchmark)
	}
	// The wire accepts lowercase spellings; the registry is uppercase.
	isaName := strings.ToUpper(s.ISA)
	target := isa.ByName(isaName)
	if target == nil {
		return campaign.Config{}, fmt.Errorf("vulfi: unknown ISA %q (AVX, SSE)", isaName)
	}
	cat, err := ParseCategory(s.Category)
	if err != nil {
		return campaign.Config{}, err
	}
	scale, err := ParseScale(s.Scale)
	if err != nil {
		return campaign.Config{}, err
	}
	backend, err := ParseBackend(s.Backend)
	if err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{
		Benchmark: b, ISA: target, Category: cat, Scale: scale, Backend: backend,
		Experiments: s.Experiments, Campaigns: s.Campaigns, Seed: s.Seed,
		Workers: s.Workers, Inputs: s.Inputs,
		Detectors: s.Detectors, DetectorEveryIteration: s.DetectorEveryIteration,
		BroadcastDetector: s.BroadcastDetector, MaskLoopDetector: s.MaskLoopDetector,
		WholeRegisterSites: s.WholeRegisterSites, MaskOblivious: s.MaskOblivious,
		Trace: s.Trace, Atlas: s.Atlas, Profile: s.Profile,
		Timeline: s.Timeline, TraceParent: s.TraceParent,
		ShardStart: s.ShardStart, ShardEnd: s.ShardEnd,
	}
	if err := cfg.Validate(); err != nil {
		return campaign.Config{}, err
	}
	return cfg, nil
}
