package atlas

import (
	"math"
	"sort"

	"vulfi/internal/campaign"
	"vulfi/internal/stats"
)

// Interval is a Wilson score confidence interval on an outcome rate.
type Interval struct {
	Rate float64 `json:"rate"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// interval computes the rate x/n with its 95% Wilson interval. With no
// injections the rate is 0 and the interval is the vacuous [0,1].
func interval(x, n int) Interval {
	iv := Interval{}
	if n > 0 {
		iv.Rate = float64(x) / float64(n)
	}
	iv.Lo, iv.Hi = stats.WilsonInterval(x, n, stats.Z95)
	return iv
}

// Row is one static site's atlas row: its tally plus the derived rates
// with confidence intervals.
type Row struct {
	campaign.SiteTally
	SDCRate      Interval `json:"sdc_rate"`
	CrashRate    Interval `json:"crash_rate"`
	BenignRate   Interval `json:"benign_rate"`
	DetectedRate Interval `json:"detected_rate"`
}

// Atlas is the spatial view of one study: every instrumented static
// site with its attribution and confidence-qualified outcome rates.
type Atlas struct {
	Benchmark string `json:"benchmark"`
	ISA       string `json:"isa"`
	Category  string `json:"category"`
	// Experiments is the study's total experiment count; Attributed is
	// the subset whose injection landed on a known site (the rest were
	// vacuous or never reached their target).
	Experiments int   `json:"experiments"`
	Attributed  int   `json:"attributed"`
	Rows        []Row `json:"rows"`
}

// New builds the atlas view of a completed study. The study must have
// run with Config.Atlas; without tallies the atlas is empty.
func New(sr *campaign.StudyResult) *Atlas {
	a := &Atlas{
		Benchmark:   sr.Cfg.Benchmark.Name,
		ISA:         sr.Cfg.ISA.Name,
		Category:    sr.Cfg.Category.String(),
		Experiments: sr.Totals.Experiments,
	}
	a.Rows = rows(sr.Sites)
	for _, r := range a.Rows {
		a.Attributed += r.Injections
	}
	return a
}

// rows derives confidence-qualified rows from raw tallies, ranked most
// SDC-prone first (by SDC rate, then injection count, then key) — the
// same ordering intuition as the trace blame table, but rate-based so
// rarely-hit-but-always-corrupting sites surface.
func rows(tallies []campaign.SiteTally) []Row {
	rs := make([]Row, len(tallies))
	for i, t := range tallies {
		rs[i] = Row{
			SiteTally:    t,
			SDCRate:      interval(t.SDC, t.Injections),
			CrashRate:    interval(t.Crash, t.Injections),
			BenignRate:   interval(t.Benign, t.Injections),
			DetectedRate: interval(t.Detected, t.Injections),
		}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := &rs[i], &rs[j]
		if a.SDCRate.Rate != b.SDCRate.Rate {
			return a.SDCRate.Rate > b.SDCRate.Rate
		}
		if a.Injections != b.Injections {
			return a.Injections > b.Injections
		}
		return a.Key < b.Key
	})
	return rs
}

// finiteOr replaces non-finite values with a JSON-safe sentinel.
func finiteOr(v, sentinel float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return sentinel
	}
	return v
}
