package server

import (
	"reflect"
	"strings"
	"testing"
)

// TestReproCommandCoversSpec walks every spec field and requires it to
// be classified for the repro command: rendered as a vulfi flag,
// irrelevant to replaying one experiment, or unrenderable, in which
// case the command is left empty rather than replaying another
// experiment. A new spec field fails here until it is classified.
func TestReproCommandCoversSpec(t *testing.T) {
	// Each rendered field maps to the value it is set to and the flag
	// text that value must add.
	rendered := map[string]struct {
		value any
		flag  string
	}{
		"benchmark":          {"Jacobi", "-benchmark Jacobi "},
		"isa":                {"SSE", "-isa SSE "},
		"category":           {"address", "-category address "},
		"scale":              {"large", " -large"},
		"experiments":        {7, " -experiments 7"},
		"campaigns":          {3, " -campaigns 3"},
		"seed":               {int64(42), " -seed 42"},
		"inputs":             {4, " -inputs 4"},
		"backend":            {"tree", " -backend tree"},
		"detectors":          {true, " -detectors"},
		"broadcast_detector": {true, " -broadcast-detector"},
	}
	// Knobs one experiment's replay does not depend on: parallelism,
	// what the study records about its runs, and where the index runs.
	irrelevant := map[string]any{
		"workers": 4, "trace": true, "atlas": true, "profile": true,
		"timeline": true, "trace_parent": "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"shards": 2, "shard_start": 2, "shard_end": 7,
	}
	// Knobs vulfi has no flag for.
	unrenderable := map[string]any{
		"detector_every_iteration": true, "mask_loop_detector": true,
		"whole_register_sites": true, "mask_oblivious": true,
	}

	base := Spec{Benchmark: "VectorCopy", ISA: "AVX", Category: "control", Seed: 1}
	const index = 6
	baseCmd := reproBundle(base, index, 0).Command
	if baseCmd == "" || !strings.HasSuffix(baseCmd, " -explain 6") {
		t.Fatalf("base command %q does not pin the experiment index", baseCmd)
	}
	with := func(field string, value any) string {
		t.Helper()
		spec := base
		v := reflect.ValueOf(&spec).Elem()
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if name == field {
				v.Field(i).Set(reflect.ValueOf(value))
				b := reproBundle(spec, index, 0)
				if !reflect.DeepEqual(b.Spec, spec) || b.Index != index {
					t.Fatalf("%s: bundle %+v does not carry the spec and index", field, b)
				}
				return b.Command
			}
		}
		t.Fatalf("no spec field %q", field)
		return ""
	}

	for _, field := range SpecFields() {
		if r, ok := rendered[field]; ok {
			if cmd := with(field, r.value); !strings.Contains(cmd, r.flag) || strings.Contains(baseCmd, r.flag) {
				t.Errorf("%s = %v: command %q does not render %q", field, r.value, cmd, r.flag)
			}
		} else if value, ok := irrelevant[field]; ok {
			if cmd := with(field, value); cmd != baseCmd {
				t.Errorf("%s = %v changed the command to %q", field, value, cmd)
			}
		} else if value, ok := unrenderable[field]; ok {
			if cmd := with(field, value); cmd != "" {
				t.Errorf("%s = %v: command %q, want none", field, value, cmd)
			}
		} else {
			t.Errorf("spec field %q is not classified for the repro command", field)
		}
	}
	for _, scale := range []string{"test", "small"} {
		if cmd := with("scale", scale); cmd != "" {
			t.Errorf("scale %q: command %q, want none", scale, cmd)
		}
	}
}
