package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// TestInterpCountersMatchRuns: observe publishes every run's
// interpreter counters to the cell registry. After a profiled study the
// instruction counters equal the profile totals — the profile sees
// exactly the golden runs actually executed plus the faulty runs — and
// the trap counter equals the crash count. A pure-data fault never
// reaches control flow or addresses, so each faulty run of that cell
// visits exactly its golden run's sites and the site-visit counter is
// twice the summed DynSites.
func TestInterpCountersMatchRuns(t *testing.T) {
	for _, backend := range []string{"tree", "vm"} {
		for _, cat := range []passes.Category{passes.PureData, passes.Address} {
			cfg := profCfg()
			cfg.Benchmark = benchmarks.Blackscholes
			cfg.Category = cat
			cfg.Backend = backend
			cfg.Metrics = telemetry.NewRegistry()
			var mu sync.Mutex
			var dynSites uint64
			cfg.OnResult = func(_ int, _ int64, r *ExperimentResult) {
				mu.Lock()
				dynSites += r.DynSites
				mu.Unlock()
			}
			sr, err := RunStudy(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			counter := func(name string) uint64 { return cfg.Metrics.Counter(name).Value() }
			name := backend + "/" + cat.String()
			if got, want := counter("interp.instrs"), sr.HotProfile.TotalDyn; got != want {
				t.Errorf("%s: interp.instrs = %d, profile total %d", name, got, want)
			}
			if got, want := counter("interp.vector_instrs"), sr.HotProfile.TotalVector; got != want {
				t.Errorf("%s: interp.vector_instrs = %d, profile total %d", name, got, want)
			}
			if got, want := counter("interp.traps"), uint64(sr.Totals.Crash); got != want {
				t.Errorf("%s: interp.traps = %d, crashes %d", name, got, want)
			}
			if cat == passes.Address && sr.Totals.Crash == 0 {
				t.Errorf("%s: no crashes, so the trap count went unchecked", name)
			}
			if cat == passes.PureData {
				if got, want := counter("interp.site_visits"), 2*dynSites; got != want {
					t.Errorf("%s: interp.site_visits = %d, want 2 x summed DynSites = %d",
						name, got, want)
				}
			}
		}
	}
}

// TestTraceAndProfileTogether: a cell with both Trace and Profile on
// observes each run through one observer that feeds the probe and the
// ring. The profile still totals every golden run's DynInstrs, and
// every explanation equals the one a trace-only run produces.
func TestTraceAndProfileTogether(t *testing.T) {
	for _, backend := range []string{"tree", "vm"} {
		run := func(profile bool) (*StudyResult, map[int][]byte, uint64) {
			cfg := tracedCfg()
			cfg.Backend = backend
			cfg.Profile = profile
			var mu sync.Mutex
			explained := map[int][]byte{}
			var goldenDyn uint64
			cfg.OnResult = func(i int, _ int64, r *ExperimentResult) {
				j, err := json.Marshal(r.Explanation)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				explained[i] = j
				goldenDyn += r.GoldenDynInstrs
				mu.Unlock()
			}
			sr, err := RunStudy(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sr, explained, goldenDyn
		}
		_, traced, _ := run(false)
		sr, both, goldenDyn := run(true)

		if sr.HotProfile == nil {
			t.Fatalf("%s: Profile on but HotProfile nil", backend)
		}
		var golden uint64
		for _, ph := range sr.HotProfile.Phases {
			if ph.Phase == "golden" {
				golden = ph.Dyn
			}
		}
		// Trace mode bypasses the golden cache, so every golden run executed.
		if golden != goldenDyn {
			t.Errorf("%s: golden phase dyn %d, interpreters counted %d", backend, golden, goldenDyn)
		}
		if len(both) != len(traced) {
			t.Fatalf("%s: %d explanations with profiling, %d without", backend, len(both), len(traced))
		}
		for i, want := range traced {
			if !bytes.Equal(both[i], want) {
				t.Errorf("%s: experiment %d explanation differs with profiling on:\nboth:  %s\ntrace: %s",
					backend, i, both[i], want)
			}
		}
	}
}
