package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"vulfi/internal/buildinfo"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (bench_test pins the two together); the
// regression bounds live only there.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the user-visible metrics of an untraced run. Every
// workload reports all of them; "the unit of work" is one experiment on
// the study workloads and one job on vulfid-service (README.md).
var endToEnd = []metricDef{
	{"exp_per_s", "exp/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run: layer entry points timed
// from bench code, the study timelines' spans, and host context.
var perLayer = []metricDef{
	{"lang.compile_us", "us", "lower"},
	{"codegen.compile_us", "us", "lower"},
	{"codegen.ir_instrs", "count", "lower"},
	{"detect.passes_us", "us", "lower"},
	{"core.instrument_us", "us", "lower"},
	{"core.dyn_sites_per_exp", "count", "lower"},
	{"vm.compile_us", "us", "lower"},
	{"vm.fused_pairs", "count", "higher"},
	{"vm.minstr_per_s", "Minstr/s", "higher"},
	{"vm.allocs_per_run", "count", "lower"},
	{"vm.bytes_per_run", "B", "lower"},
	{"interp.minstr_per_s", "Minstr/s", "higher"},
	{"interp.allocs_per_run", "count", "lower"},
	{"interp.bytes_per_run", "B", "lower"},
	{"exec.new_instance_us", "us", "lower"},
	{"exec.reset_us", "us", "lower"},
	{"benchmarks.setup_us", "us", "lower"},
	{"campaign.prepare_ms", "ms", "lower"},
	{"campaign.golden_ms", "ms", "lower"},
	{"campaign.golden_exec_ms", "ms", "lower"},
	{"campaign.faulty_ms", "ms", "lower"},
	{"campaign.faulty_share", "ratio", "lower"},
	{"campaign.compare_us", "us", "lower"},
	{"campaign.overhead_us", "us", "lower"},
	{"campaign.host_instrs_per_exp", "count", "lower"},
	{"campaign.cache_hit_ratio", "ratio", "higher"},
	{"campaign.hang_frac", "ratio", "lower"},
	{"campaign.study_tail_ms", "ms", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"obs.spans_per_exp", "count", "lower"},
	{"runtime.gc_per_kexp", "count", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.bytes_per_exp", "B", "lower"},
	{"journal.replay_us_per_record", "us", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"host.steal_pct", "%", "lower"},
}

// serviceLayer are per-layer metrics only vulfid-service has: they
// appear in its result file and summary, not on the result line.
// coordinator.sharded_exp_per_s is in the untraced result file too.
var serviceLayer = []metricDef{
	{"coordinator.sharded_exp_per_s", "exp/s", "higher"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.job_overhead_ms", "ms", "lower"},
	{"api.result_kb", "KB", "lower"},
	{"client.submit_ms", "ms", "lower"},
	{"client.tail_lag_ms", "ms", "lower"},
	{"profile.job_overhead_ms", "ms", "lower"},
	{"coordinator.harvest_lag_s", "s", "lower"},
	{"coordinator.merge_ms", "ms", "lower"},
	{"coordinator.finish_wait_ms", "ms", "lower"},
}

// lookupDef finds a metric definition by name across all lists.
func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer, serviceLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Rounds    int
	Measured  float64 // seconds inside the measured rounds
	Attempted int
	Failed    int
	Values    map[string]float64
	Samples   map[string]int
	Problems  []string
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace,
		Values: map[string]float64{}, Samples: map[string]int{},
	}
}

// set records one metric value with its sample count.
func (r *result) set(name string, v float64, samples int) {
	r.Values[name] = v
	r.Samples[name] = samples
}

// fail records n failed operations and why.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// lineMetrics is the metric list of the run's result line.
func (r *result) lineMetrics() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

// requireMetrics records a problem for every metric of the mode the
// run could not measure: a missing number makes the run incorrect
// rather than silently absent.
func (r *result) requireMetrics() {
	for _, d := range r.lineMetrics() {
		if _, ok := r.Values[d.Name]; !ok {
			r.fail(0, "metric %s was not measured", d.Name)
		}
	}
}

// correct reports whether every operation succeeded and every check
// passed.
func (r *result) correct() bool {
	return r.Failed == 0 && len(r.Problems) == 0 && r.Attempted > 0
}

// writeLine prints the run's one-line JSON verdict: correctness plus
// every measured metric of the mode.
func (r *result) writeLine(w io.Writer) error {
	line := resultLine{
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]lineValue{},
	}
	for _, d := range r.lineMetrics() {
		if v, ok := r.Values[d.Name]; ok {
			line.Metrics[d.Name] = lineValue{Value: v, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// row is one metric of a result file.
type row struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Build    string  `json:"build"`
	Host     hostCtx `json:"host"`
}

// resultFile is bench-out/<workload>.json.
type resultFile struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Rounds    int      `json:"rounds"`
	MeasuredS float64  `json:"measured_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Rows      []row    `json:"rows"`
}

type hostCtx struct {
	Hostname   string `json:"hostname"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostCtx {
	h, _ := os.Hostname()
	return hostCtx{
		Hostname: h, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
}

// file renders the result as its result file, rows sorted by name.
func (r *result) file() resultFile {
	build := buildinfo.Revision()
	if build == "" {
		build = "unstamped"
	}
	host := currentHost()
	f := resultFile{
		Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Rounds: r.Rounds,
		MeasuredS: r.Measured, Attempted: r.Attempted, Failed: r.Failed,
		Problems: r.Problems,
	}
	for name, v := range r.Values {
		d, _ := lookupDef(name)
		f.Rows = append(f.Rows, row{
			Name: name, Unit: d.Unit, Value: v, Samples: r.Samples[name],
			Workload: r.Workload, Seed: r.Seed, Build: build, Host: host,
		})
	}
	sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].Name < f.Rows[j].Name })
	return f
}

// writeFile stores the result file at path, creating its directory.
func (r *result) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.file(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSummary prints the human-readable table: every metric with its
// unit and sample count, then any problems.
func (r *result) writeSummary(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s: %d rounds in %.1fs, %d/%d operations failed\n",
		r.Workload, r.Seed, mode, r.Rounds, r.Measured, r.Failed, r.Attempted)
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, _ := lookupDef(n)
		fmt.Fprintf(w, "  %-30s %14.4f %-9s n=%d\n", n, r.Values[n], d.Unit, r.Samples[n])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}
