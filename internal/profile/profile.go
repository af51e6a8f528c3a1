package profile

import (
	"slices"
	"sort"
	"time"

	"vulfi/internal/ir"
	"vulfi/internal/obs"
)

// Caps keep the exported profile a readable decision document rather
// than a dump: full detail stays available through Stacks (every site,
// every phase), which the folded output serializes.
const (
	maxPairs = 20
	maxSites = 30
)

// Profile is the JSON-exported execution profile of one study. Every
// count field is deterministic for a given configuration; the *NS,
// *Pct-of-time and throughput fields are wall-clock measurements and
// vary run to run (determinism tests zero them, like StudyResult.Wall).
type Profile struct {
	// Runs is the number of profiled interpreter executions (golden
	// cache hits and checkpoint-replayed experiments never re-execute,
	// so they are invisible here by design).
	Runs        int    `json:"runs"`
	Experiments int    `json:"experiments"`
	TotalDyn    uint64 `json:"total_dyn"`
	TotalVector uint64 `json:"total_vector"`
	// WallNS is the study wall (the timeline's root span).
	WallNS int64 `json:"wall_ns"`
	// ExpPerSec is the study-level throughput: Experiments over WallNS.
	ExpPerSec float64 `json:"exp_per_sec"`

	// Ops ranks opcodes by dynamic count — the compiled backend's
	// lowering priority list.
	Ops []OpRow `json:"ops"`
	// Pairs ranks (prev, next) opcode digrams by frequency — the
	// superinstruction candidate list.
	Pairs []PairRow `json:"pairs,omitempty"`
	// Sites ranks static sites by dynamic count, keyed by the shared
	// trace.SiteKey spelling.
	Sites []SiteRow `json:"sites,omitempty"`
	// Phases is the campaign phase breakdown (wall + instructions).
	Phases []PhaseRow `json:"phases,omitempty"`
	// Stacks carries every phase/site row — the folded-stack source the
	// flame graph and WriteFolded consume.
	Stacks []StackRow `json:"stacks,omitempty"`
}

// OpRow is one opcode's aggregate cost.
type OpRow struct {
	Op       string  `json:"op"`
	Count    uint64  `json:"count"`
	Vector   uint64  `json:"vector,omitempty"`
	TimeNS   uint64  `json:"time_ns"`
	CountPct float64 `json:"count_pct"`
	TimePct  float64 `json:"time_pct"`
}

// PairRow is one (prev, next) opcode digram.
type PairRow struct {
	First  string `json:"first"`
	Second string `json:"second"`
	Count  uint64 `json:"count"`
}

// SiteRow is one static site's aggregate cost across all phases.
type SiteRow struct {
	Site   string `json:"site"`
	Count  uint64 `json:"count"`
	TimeNS uint64 `json:"time_ns"`
}

// PhaseRow is one campaign phase's share of the study.
type PhaseRow struct {
	Phase string `json:"phase"`
	// WallNS sums the durations of the study's spans of this name.
	WallNS int64 `json:"wall_ns"`
	// Dyn is the instructions retired inside this phase's interpreter
	// runs (zero for phases that execute no guest code, like compare).
	Dyn uint64 `json:"dyn,omitempty"`
}

// StackRow is one phase/site folded-stack frame chain with its sample
// value (dynamic instruction count; TimeNS rides along for tooling that
// prefers time-weighted graphs).
type StackRow struct {
	Phase  string `json:"phase"`
	Func   string `json:"func"`
	Block  string `json:"block"`
	Instr  string `json:"instr"`
	Count  uint64 `json:"count"`
	TimeNS uint64 `json:"time_ns"`
}

// opLabel disambiguates the two opcodes that share the "br" mnemonic.
func opLabel(o ir.Op) string {
	if o == ir.OpCondBr {
		return "condbr"
	}
	return o.String()
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Snapshot freezes the collector into its exported profile, reading
// the wall-time fields off the study's timeline tl: each phase's WallNS
// sums the durations of tl's spans of that name, Experiments counts its
// experiment spans, WallNS is the study wall, and ExpPerSec divides the
// two. A nil tl leaves them zero. The collector remains usable; later
// snapshots see later state.
func (c *Collector) Snapshot(tl *obs.Timeline) *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()

	p := &Profile{Runs: c.runs}
	// A phase gets a row when it was profiled or timed (compile and
	// compare run no guest code, so only their spans name them).
	walls := map[string]int64{}
	for name := range c.phases {
		walls[name] = 0
	}
	if tl != nil {
		for _, s := range tl.Spans {
			if s.Name == "experiment" {
				p.Experiments++
			} else if slices.Contains(PhaseOrder, s.Name) {
				walls[s.Name] += s.DurNS
			}
		}
		p.WallNS = tl.WallNS
		if p.WallNS > 0 {
			p.ExpPerSec = float64(p.Experiments) / time.Duration(p.WallNS).Seconds()
		}
	}

	var totalNS uint64
	for op := 0; op < int(ir.NumOps); op++ {
		p.TotalDyn += c.count[op]
		p.TotalVector += c.vector[op]
		totalNS += c.timeNS[op]
	}
	for op := 0; op < int(ir.NumOps); op++ {
		if c.count[op] == 0 {
			continue
		}
		p.Ops = append(p.Ops, OpRow{
			Op:       opLabel(ir.Op(op)),
			Count:    c.count[op],
			Vector:   c.vector[op],
			TimeNS:   c.timeNS[op],
			CountPct: pct(c.count[op], p.TotalDyn),
			TimePct:  pct(c.timeNS[op], totalNS),
		})
	}
	sort.Slice(p.Ops, func(i, j int) bool {
		a, b := &p.Ops[i], &p.Ops[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Op < b.Op
	})

	for prev := 0; prev < int(ir.NumOps); prev++ {
		for next := 0; next < int(ir.NumOps); next++ {
			n := c.pairs[prev*int(ir.NumOps)+next]
			if n == 0 {
				continue
			}
			p.Pairs = append(p.Pairs, PairRow{
				First: opLabel(ir.Op(prev)), Second: opLabel(ir.Op(next)), Count: n,
			})
		}
	}
	sort.Slice(p.Pairs, func(i, j int) bool {
		a, b := &p.Pairs[i], &p.Pairs[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.First != b.First {
			return a.First < b.First
		}
		return a.Second < b.Second
	})
	if len(p.Pairs) > maxPairs {
		p.Pairs = p.Pairs[:maxPairs]
	}

	// Sites: fold phases together for the overall hot ranking; Stacks
	// keeps the per-phase split.
	merged := map[string]*SiteRow{}
	for _, name := range phaseNames(walls) {
		pa := c.phases[name]
		if pa == nil {
			pa = &phaseAgg{}
		}
		p.Phases = append(p.Phases, PhaseRow{
			Phase: name, WallNS: walls[name], Dyn: pa.dyn,
		})
		for _, key := range siteKeys(pa.sites) {
			s := pa.sites[key]
			p.Stacks = append(p.Stacks, StackRow{
				Phase: name, Func: s.id.fn, Block: s.id.block,
				Instr: s.id.instr, Count: s.count, TimeNS: s.ns,
			})
			m := merged[key]
			if m == nil {
				m = &SiteRow{Site: key}
				merged[key] = m
			}
			m.Count += s.count
			m.TimeNS += s.ns
		}
	}
	for _, m := range merged {
		p.Sites = append(p.Sites, *m)
	}
	sort.Slice(p.Sites, func(i, j int) bool {
		a, b := &p.Sites[i], &p.Sites[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Site < b.Site
	})
	if len(p.Sites) > maxSites {
		p.Sites = p.Sites[:maxSites]
	}
	return p
}

// phaseNames orders the keys of a phase-keyed map canonically, with any
// phase outside PhaseOrder appended alphabetically.
func phaseNames[V any](phases map[string]V) []string {
	var names []string
	seen := map[string]bool{}
	for _, n := range PhaseOrder {
		if _, ok := phases[n]; ok {
			names = append(names, n)
			seen[n] = true
		}
	}
	var extra []string
	for n := range phases {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

func siteKeys(sites map[string]*siteAgg) []string {
	keys := make([]string, 0, len(sites))
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
