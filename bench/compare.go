package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads every untraced result file in dir: workload → metric
// → values, in file-name order (the order runs pair up in).
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "trace-") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Trace || f.Workload == "" {
			continue
		}
		if out[f.Workload] == nil {
			out[f.Workload] = map[string][]float64{}
		}
		for _, r := range f.Rows {
			out[f.Workload][r.Name] = append(out[f.Workload][r.Name], r.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

// verdict compares one metric's runs, following the choosing-metrics
// rules: a gain needs at least 9 in 10 pairs won and a median
// difference beyond the parent's interquartile range; a spread wider
// than the bound leaves the metric unresolved unless every change run
// beats every parent run; otherwise a median worse by more than the
// bound is a regression.
func verdict(parent, change []float64, higher bool, bound float64) (string, float64) {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	winRate := 0.0
	if pairs > 0 {
		winRate = float64(wins) / float64(pairs)
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	gain := cm - pm
	if !higher {
		gain = -gain
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	spread := 0.0
	if pm != 0 && cm != 0 {
		spread = max((pq3-pq1)/abs(pm), (cq3-cq1)/abs(cm))
	}
	switch {
	case winRate >= 0.9 && gain > pq3-pq1:
		return "better", winRate
	case spread > bound && !allBetter:
		return "unresolved", winRate
	case pm != 0 && -gain/abs(pm) > bound:
		return "worse", winRate
	default:
		return "unchanged", winRate
	}
}

func abs(x float64) float64 { return max(x, -x) }

// compareMain prints one row per workload × end-to-end metric with both
// sides' median and quartiles, the pair win rate and the verdict. It
// exits 1 when any metric got worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: vulfi-bench compare [-benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	b, err := os.ReadFile(*spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *spec, err)
		return 1
	}
	parent, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	change, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	names := make([]string, 0, len(parent))
	for w := range parent {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tn\twins\tbound\tverdict")
	code := 0
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			p, c := parent[w][m.Name], change[w][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%.0f%%\tmissing\n", w, m.Name, 100*m.Bound)
				code = 1
				continue
			}
			v, winRate := verdict(p, c, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%.0f%%\t%.0f%%\t%s\n",
				w, m.Name, pm, pq1, pq3, m.Unit, cm, cq1, cq3, m.Unit,
				len(p), len(c), 100*winRate, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return code
}
