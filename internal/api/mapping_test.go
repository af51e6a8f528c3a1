package api

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vulfi/internal/campaign"
)

// TestEverySpecFieldReachesConfig: zeroing any one wire field of a
// fully valued spec changes the resolved Config, so adding a Spec field
// that Config does not copy fails here before it can ship as a silently
// ignored knob. The skipped fields are the routing knob only the
// coordinator reads and the three required names.
func TestEverySpecFieldReachesConfig(t *testing.T) {
	full := fullSpec()
	want, err := full.Config()
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{"shards": true, "benchmark": true, "isa": true, "category": true}
	typ := reflect.TypeOf(full)
	checked := 0
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if skip[name] {
			continue
		}
		spec := full
		reflect.ValueOf(&spec).Elem().Field(i).SetZero()
		if name == "shard_end" {
			spec.ShardStart = 0 // a range start needs its end
		}
		got, err := spec.Config()
		if err != nil {
			t.Errorf("%s zeroed: %v", name, err)
			continue
		}
		if reflect.DeepEqual(got, want) {
			t.Errorf("zeroing %q leaves the Config unchanged", name)
		}
		checked++
	}
	if want := len(SpecFields()) - len(skip); checked != want {
		t.Errorf("checked %d fields, want %d", checked, want)
	}
}

// fullSpec carries a non-default value for every knob, so the mapping
// must touch every campaign.Config field it claims to own. The backend
// is "tree" because an empty one resolves to the default, vm.
func fullSpec() Spec {
	return Spec{
		Benchmark: "Blackscholes", ISA: "avx", Category: "control",
		Scale: "large", Experiments: 7, Campaigns: 3, Seed: 42,
		Workers: 2, Inputs: 2,
		Detectors: true, DetectorEveryIteration: true, BroadcastDetector: true,
		MaskLoopDetector: true, WholeRegisterSites: true, MaskOblivious: true,
		Trace: true, Atlas: true, Profile: true, Backend: "tree",
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

// TestSpecTotalsBounded: a spec whose schedule or shard range
// campaign.Config.Validate rejects runs no experiment, so its totals
// are 0 rather than an overflowed or negative count.
func TestSpecTotalsBounded(t *testing.T) {
	const max = campaign.MaxExperiments
	for _, tc := range []struct {
		name            string
		spec            Spec
		total, schedule int
	}{
		{"overflowing product", Spec{Experiments: 3037000500, Campaigns: 3037000500}, 0, 0},
		{"one past the bound", Spec{Experiments: max + 1, Campaigns: 1}, 0, 0},
		{"one past the bound, split", Spec{Experiments: 1 << 10, Campaigns: 1<<10 + 1}, 0, 0},
		{"exactly the bound", Spec{Experiments: 1 << 10, Campaigns: 1 << 10}, max, max},
		{"shard of an oversized schedule", Spec{Experiments: max, Campaigns: 2, ShardStart: 0, ShardEnd: 10}, 0, 0},
		{"inverted shard range", Spec{Experiments: 10, Campaigns: 3, ShardStart: 12, ShardEnd: 5}, 0, 30},
		{"empty shard range", Spec{Experiments: 10, Campaigns: 3, ShardStart: 5, ShardEnd: 5}, 0, 30},
		{"negative shard start", Spec{Experiments: 10, Campaigns: 3, ShardStart: math.MinInt, ShardEnd: 5}, 0, 30},
		{"shard past the schedule", Spec{Experiments: 10, Campaigns: 3, ShardStart: 5, ShardEnd: 31}, 0, 30},
		{"shard at the schedule's end", Spec{Experiments: 10, Campaigns: 3, ShardStart: 5, ShardEnd: 30}, 25, 30},
	} {
		if got := tc.spec.Total(); got != tc.total {
			t.Errorf("%s: Total() = %d, want %d", tc.name, got, tc.total)
		}
		if got := tc.spec.ScheduleTotal(); got != tc.schedule {
			t.Errorf("%s: ScheduleTotal() = %d, want %d", tc.name, got, tc.schedule)
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
