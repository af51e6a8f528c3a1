package trace

import (
	"sort"
	"time"

	"vulfi/internal/telemetry"
)

// Histogram names registered on the study registry. The telemetry
// histograms are duration-typed, so integer magnitudes are encoded as
// microseconds (ObserveCount): bucket b then holds values of bit-length
// b, a log2 histogram exported through the existing /metrics and
// /debug/vars expositions unchanged.
const (
	HistDepth  = "trace.depth"
	HistSpread = "trace.lane_spread"
	HistTTD    = "trace.time_to_detection"
)

// ObserveCount records the integer n on a duration histogram using the
// count-as-microseconds encoding.
func ObserveCount(h *telemetry.Histogram, n uint64) {
	h.Observe(time.Duration(n) * time.Microsecond)
}

// SiteKey returns the canonical static-site key "@func/block: instr".
// It is the ONE spelling of a static fault site's identity: the blame
// ranking, the campaign's per-site tallies and the atlas all key on it,
// so a site aggregated by two subsystems can never land under two keys.
func SiteKey(fn, block, instr string) string {
	return "@" + fn + "/" + block + ": " + instr
}

// Key returns the site's canonical static key (see SiteKey). Lane is
// deliberately excluded: attribution is per static site, with lanes
// folded together.
func (s *SiteRef) Key() string { return SiteKey(s.Func, s.Block, s.Instr) }

// BlameEntry is one static fault site's outcome tally in the blame
// ranking.
type BlameEntry struct {
	Site        string `json:"site"`
	Experiments int    `json:"experiments"`
	SDC         int    `json:"sdc"`
	Crash       int    `json:"crash"`
	Benign      int    `json:"benign"`
	Detected    int    `json:"detected"`
}

// SDCRate returns the fraction of this site's experiments that ended in
// silent data corruption.
func (b *BlameEntry) SDCRate() float64 {
	if b.Experiments == 0 {
		return 0
	}
	return float64(b.SDC) / float64(b.Experiments)
}

// Summary is the JSON-exported PropagationProfile of a study.
type Summary struct {
	Traced            int `json:"traced"`
	Diverged          int `json:"diverged"`
	ControlDivergence int `json:"control_divergence"`
	CrossedControl    int `json:"crossed_control"`
	CrossedAddress    int `json:"crossed_address"`
	Truncated         int `json:"truncated,omitempty"`

	MeanDepth      float64 `json:"mean_depth"`
	MaxDepth       int     `json:"max_depth"`
	MeanLaneSpread float64 `json:"mean_lane_spread"`
	MaxLaneSpread  int     `json:"max_lane_spread"`

	Detections          int     `json:"detections"`
	MeanTimeToDetection float64 `json:"mean_time_to_detection"`

	// Blame ranks static fault sites by SDC count (then crashes, then
	// site name): the sites to harden or instrument first.
	Blame []BlameEntry `json:"blame"`
}

// Summarize folds a study's explanations into its PropagationProfile,
// with the blame table ranked most SDC-prone first, and publishes the
// depth/spread/time-to-detection histograms and the crossing counters
// on reg. Nil entries are skipped: an experiment that reached no
// dynamic site carries no explanation.
func Summarize(reg *telemetry.Registry, exps []*Explanation) *Summary {
	depthH := reg.Histogram(HistDepth)
	spreadH := reg.Histogram(HistSpread)
	ttdH := reg.Histogram(HistTTD)
	s := &Summary{}
	blame := map[string]*BlameEntry{}
	var depthSum, spreadSum, ttdSum uint64
	for _, e := range exps {
		if e == nil {
			continue
		}
		s.Traced++
		if e.Diverged {
			s.Diverged++
			depthSum += uint64(e.Depth)
			s.MaxDepth = max(s.MaxDepth, e.Depth)
			spreadSum += uint64(e.MaxLaneSpread)
			s.MaxLaneSpread = max(s.MaxLaneSpread, e.MaxLaneSpread)
			ObserveCount(depthH, uint64(e.Depth))
			ObserveCount(spreadH, uint64(e.MaxLaneSpread))
		}
		if e.ControlDivergence {
			s.ControlDivergence++
		}
		if e.CrossedControl {
			s.CrossedControl++
		}
		if e.CrossedAddress {
			s.CrossedAddress++
		}
		if e.TimeToDetection >= 0 {
			s.Detections++
			ttdSum += uint64(e.TimeToDetection)
			ObserveCount(ttdH, uint64(e.TimeToDetection))
		}
		if e.Truncated {
			s.Truncated++
		}
		if site := e.FaultSite; site != nil {
			key := site.Key()
			b := blame[key]
			if b == nil {
				b = &BlameEntry{Site: key}
				blame[key] = b
			}
			b.Experiments++
			switch e.Outcome {
			case "SDC":
				b.SDC++
			case "Crash":
				b.Crash++
			default:
				b.Benign++
			}
			if e.Detected {
				b.Detected++
			}
		}
	}
	reg.Counter("trace.experiments").Add(uint64(s.Traced))
	reg.Counter("trace.diverged").Add(uint64(s.Diverged))
	reg.Counter("trace.control_divergence").Add(uint64(s.ControlDivergence))
	reg.Counter("trace.crossed_control").Add(uint64(s.CrossedControl))
	reg.Counter("trace.crossed_address").Add(uint64(s.CrossedAddress))
	if s.Diverged > 0 {
		s.MeanDepth = float64(depthSum) / float64(s.Diverged)
		s.MeanLaneSpread = float64(spreadSum) / float64(s.Diverged)
	}
	if s.Detections > 0 {
		s.MeanTimeToDetection = float64(ttdSum) / float64(s.Detections)
	}
	s.Blame = make([]BlameEntry, 0, len(blame))
	for _, b := range blame {
		s.Blame = append(s.Blame, *b)
	}
	sort.Slice(s.Blame, func(i, j int) bool {
		a, b := &s.Blame[i], &s.Blame[j]
		if a.SDC != b.SDC {
			return a.SDC > b.SDC
		}
		if a.Crash != b.Crash {
			return a.Crash > b.Crash
		}
		return a.Site < b.Site
	})
	return s
}
