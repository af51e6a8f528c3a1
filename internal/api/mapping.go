package api

import (
	"strings"

	"vulfi"
	"vulfi/internal/campaign"
)

// The knob table below is the single source of truth tying the wire
// schema to the study configuration: every JSON field of Spec has
// exactly one entry, and each entry says how that field reaches a
// study — as functional options on the vulfi.NewStudy path (the same
// path library users take), or as routing metadata the coordinator
// consumes before any study exists. A new knob is declared once (the
// Spec field plus its table entry); the mapping test asserts the table
// and SpecFields never drift apart, and the cliutil drift test asserts
// CLI flags spell the knobs identically.

// knob maps one Spec JSON field onto the study path. options returns
// the study options the field contributes for a given spec (nil when
// its zero value needs none); routing marks fields consumed by the
// coordinator's shard scheduler rather than the study itself.
type knob struct {
	name    string
	routing bool
	options func(Spec) ([]vulfi.StudyOption, error)
}

func one(o vulfi.StudyOption) ([]vulfi.StudyOption, error) {
	return []vulfi.StudyOption{o}, nil
}

var knobs = []knob{
	{name: "benchmark", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithBenchmarkName(s.Benchmark))
	}},
	{name: "isa", options: func(s Spec) ([]vulfi.StudyOption, error) {
		// The wire accepts lowercase spellings; the registry is uppercase.
		return one(vulfi.WithISAName(strings.ToUpper(s.ISA)))
	}},
	{name: "category", options: func(s Spec) ([]vulfi.StudyOption, error) {
		cat, err := ParseCategory(s.Category)
		if err != nil {
			return nil, err
		}
		return one(vulfi.WithCategory(cat))
	}},
	{name: "scale", options: func(s Spec) ([]vulfi.StudyOption, error) {
		sc, err := ParseScale(s.Scale)
		if err != nil {
			return nil, err
		}
		return one(vulfi.WithScale(sc))
	}},
	{name: "experiments", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithExperiments(s.Experiments))
	}},
	{name: "campaigns", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithCampaigns(s.Campaigns))
	}},
	{name: "seed", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithSeed(s.Seed))
	}},
	{name: "workers", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithWorkers(s.Workers))
	}},
	{name: "inputs", options: func(s Spec) ([]vulfi.StudyOption, error) {
		return one(vulfi.WithInputs(s.Inputs))
	}},
	{name: "detectors", options: boolKnob(func(s Spec) bool { return s.Detectors },
		vulfi.WithDetectors)},
	{name: "detector_every_iteration", options: boolKnob(
		func(s Spec) bool { return s.DetectorEveryIteration },
		vulfi.WithDetectorEveryIteration)},
	{name: "broadcast_detector", options: boolKnob(
		func(s Spec) bool { return s.BroadcastDetector },
		vulfi.WithBroadcastDetector)},
	{name: "mask_loop_detector", options: boolKnob(
		func(s Spec) bool { return s.MaskLoopDetector },
		vulfi.WithMaskLoopDetector)},
	{name: "whole_register_sites", options: boolKnob(
		func(s Spec) bool { return s.WholeRegisterSites },
		vulfi.WithWholeRegisterSites)},
	{name: "mask_oblivious", options: boolKnob(
		func(s Spec) bool { return s.MaskOblivious },
		vulfi.WithMaskOblivious)},
	{name: "trace", options: boolKnob(func(s Spec) bool { return s.Trace },
		vulfi.WithTrace)},
	{name: "atlas", options: boolKnob(func(s Spec) bool { return s.Atlas },
		vulfi.WithAtlas)},
	{name: "profile", options: boolKnob(func(s Spec) bool { return s.Profile },
		vulfi.WithProfile)},
	{name: "backend", options: func(s Spec) ([]vulfi.StudyOption, error) {
		be, err := ParseBackend(s.Backend)
		if err != nil {
			return nil, err
		}
		return one(vulfi.WithBackend(be))
	}},
	{name: "timeline", options: boolKnob(func(s Spec) bool { return s.Timeline },
		vulfi.WithTimeline)},
	{name: "trace_parent", options: func(s Spec) ([]vulfi.StudyOption, error) {
		if s.TraceParent == "" {
			return nil, nil
		}
		return one(vulfi.WithTraceParent(s.TraceParent))
	}},
	// "shards" never reaches a study: the coordinator consumes it to
	// plan shard ranges, then dispatches specs with shards cleared.
	{name: "shards", routing: true},
	// The shard range is one logical knob spanning two fields; the
	// shard_end entry applies both so the pair stays atomic.
	{name: "shard_start"},
	{name: "shard_end", options: func(s Spec) ([]vulfi.StudyOption, error) {
		if s.ShardStart == 0 && s.ShardEnd == 0 {
			return nil, nil
		}
		return one(vulfi.WithShardRange(s.ShardStart, s.ShardEnd))
	}},
}

// boolKnob builds the option mapping for a plain boolean knob: emit
// the option when set, nothing otherwise.
func boolKnob(get func(Spec) bool, opt func() vulfi.StudyOption) func(Spec) ([]vulfi.StudyOption, error) {
	return func(s Spec) ([]vulfi.StudyOption, error) {
		if !get(s) {
			return nil, nil
		}
		return one(opt())
	}
}

// MappedKnobs returns the knob-table field names in declaration order.
// The mapping test asserts this equals SpecFields — i.e. the table
// covers the wire schema exhaustively.
func MappedKnobs() []string {
	out := make([]string, 0, len(knobs))
	for _, k := range knobs {
		out = append(out, k.name)
	}
	return out
}

// Options translates the spec into the functional options a library
// user would pass to vulfi.NewStudy, via the knob table.
func (s Spec) Options() ([]vulfi.StudyOption, error) {
	var opts []vulfi.StudyOption
	for _, k := range knobs {
		if k.options == nil {
			continue
		}
		o, err := k.options(s)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o...)
	}
	return opts, nil
}

// Config resolves the spec through vulfi.NewStudy — the exact gate
// library users go through, so a spec rejected on the wire is rejected
// identically in code — and returns the validated, normalized study
// configuration (telemetry sinks and checkpoint hooks unset).
func (s Spec) Config() (campaign.Config, error) {
	opts, err := s.Options()
	if err != nil {
		return campaign.Config{}, err
	}
	study, err := vulfi.NewStudy(opts...)
	if err != nil {
		return campaign.Config{}, err
	}
	return study.Config(), nil
}
