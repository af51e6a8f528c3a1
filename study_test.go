package vulfi

import "testing"

// TestNewStudyValidation: option and validation failures surface at
// construction, before any compilation.
func TestNewStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []StudyOption
	}{
		{"unknown benchmark", []StudyOption{WithBenchmarkName("NoSuchKernel"), WithISA(AVX)}},
		{"nil benchmark", []StudyOption{WithBenchmark(nil), WithISA(AVX)}},
		{"nil isa", []StudyOption{WithBenchmarkName("VectorCopy"), WithISA(nil)}},
		{"unknown isa", []StudyOption{WithBenchmarkName("VectorCopy"), WithISAName("MMX")}},
		{"missing isa", []StudyOption{WithBenchmarkName("VectorCopy")}},
		{"negative inputs", []StudyOption{
			WithBenchmarkName("VectorCopy"), WithISA(AVX), WithInputs(-1)}},
		{"negative experiments", []StudyOption{
			WithBenchmarkName("VectorCopy"), WithISA(AVX), WithExperiments(-3)}},
	}
	for _, tc := range cases {
		if _, err := NewStudy(tc.opts...); err == nil {
			t.Errorf("%s: NewStudy accepted the configuration", tc.name)
		}
	}
}

// TestNewStudyDefaults: zero counts normalize to the paper's 100×20 at
// construction, and the escape hatch reaches raw Config fields.
func TestNewStudyDefaults(t *testing.T) {
	var sawHook bool
	study, err := NewStudy(
		WithBenchmarkName("VectorCopy"),
		WithISAName("SSE"),
		WithConfig(func(c *Config) { sawHook = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !sawHook {
		t.Fatal("WithConfig hook did not run")
	}
	cfg := study.Config()
	if cfg.Experiments != 100 || cfg.Campaigns != 20 {
		t.Fatalf("defaults = %d×%d, want 100×20", cfg.Experiments, cfg.Campaigns)
	}
	if cfg.ISA != SSE {
		t.Fatalf("ISA = %v, want SSE", cfg.ISA)
	}
}
