package api

import (
	"reflect"
	"strings"
	"testing"
)

// TestMappingCoversSpec: the knob table translates every wire field, in
// wire order — adding a Spec field without a mapping entry (or vice
// versa) fails here before it can ship as a silently ignored knob.
func TestMappingCoversSpec(t *testing.T) {
	got, want := MappedKnobs(), SpecFields()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MappedKnobs() = %v\nSpecFields() = %v", got, want)
	}
}

// fullSpec carries a non-default value for every knob, so the mapping
// must touch every campaign.Config field it claims to own.
func fullSpec() Spec {
	return Spec{
		Benchmark: "Blackscholes", ISA: "avx", Category: "control",
		Scale: "large", Experiments: 7, Campaigns: 3, Seed: 42,
		Workers: 2, Inputs: 2,
		Detectors: true, DetectorEveryIteration: true, BroadcastDetector: true,
		MaskLoopDetector: true, WholeRegisterSites: true, MaskOblivious: true,
		Trace: true, Atlas: true, Profile: true, Backend: "vm",
		Timeline:    true,
		TraceParent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		Shards:      4, ShardStart: 1, ShardEnd: 2,
	}
}

// TestSpecConfigExhaustive: a fully valued spec produces a Config whose
// every field is set, except the runtime hooks the server wires itself
// and the routing knobs that never reach a campaign. Reflection keeps
// the check honest when Config grows a field: either the mapping sets
// it or this allowlist names it deliberately.
func TestSpecConfigExhaustive(t *testing.T) {
	// Runtime wiring the server owns (hooks, registries, checkpoint
	// replay) plus defaults the spec deliberately leaves alone.
	runtime := map[string]bool{
		"Metrics": true,
		"OnStart": true, "Heartbeat": true, "OnResult": true,
		"Completed": true,
	}
	cfg, err := fullSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if runtime[name] {
			continue
		}
		if v.Field(i).IsZero() {
			t.Errorf("Config.%s is zero after mapping a fully valued spec", name)
		}
	}
	if cfg.ISA == nil || cfg.ISA.Name != "AVX" {
		t.Errorf("ISA %q was not normalized to AVX", "avx")
	}
	if cfg.ShardStart != 1 || cfg.ShardEnd != 2 {
		t.Errorf("shard range = [%d,%d), want [1,2)", cfg.ShardStart, cfg.ShardEnd)
	}
}

// TestSpecConfigParseErrors: enum knobs fail with errors naming the
// accepted spellings, not silent defaults.
func TestSpecConfigParseErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Category = "bogus" }, "category"},
		{func(s *Spec) { s.Scale = "bogus" }, "scale"},
		{func(s *Spec) { s.Backend = "bogus" }, "backend"},
		{func(s *Spec) { s.ISA = "bogus" }, "ISA"},
		{func(s *Spec) { s.Benchmark = "bogus" }, "benchmark"},
	}
	for _, tc := range cases {
		spec := fullSpec()
		tc.mutate(&spec)
		_, err := spec.Config()
		if err == nil {
			t.Errorf("%s: no error for bogus value", tc.want)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("error %q does not mention %s", err, tc.want)
		}
	}
}

// TestSpecTotals: Total respects an explicit shard range;
// ScheduleTotal never does (it is the coordinator's full schedule).
func TestSpecTotals(t *testing.T) {
	s := Spec{Experiments: 10, Campaigns: 3}
	if got := s.Total(); got != 30 {
		t.Errorf("Total() = %d, want 30", got)
	}
	if got := s.ScheduleTotal(); got != 30 {
		t.Errorf("ScheduleTotal() = %d, want 30", got)
	}
	s.ShardStart, s.ShardEnd = 5, 12
	if got := s.Total(); got != 7 {
		t.Errorf("sharded Total() = %d, want 7", got)
	}
	if got := s.ScheduleTotal(); got != 30 {
		t.Errorf("sharded ScheduleTotal() = %d, want 30", got)
	}
	// Zero counts default like the campaign layer (100 x 20).
	if got := (Spec{}).ScheduleTotal(); got != 2000 {
		t.Errorf("defaulted ScheduleTotal() = %d, want 2000", got)
	}
}
