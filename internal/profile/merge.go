package profile

import (
	"sort"
	"time"

	"vulfi/internal/trace"
)

// Merge folds per-shard profiles into one fleet-wide profile. The count
// fields compose exactly: Stacks carries every phase/site row uncapped,
// so summing Stacks by (phase, func, block, instr) and re-deriving
// Sites from the merged rows reproduces the single-node ranking — the
// merged per-opcode and per-site dynamic counts equal the sums of the
// shards' DynInstrs, which is the invariant fleet merges are tested
// against. Two classes of field are only approximate by nature:
//
//   - wall-time fields (WallNS, TimeNS, TimePct, ExpPerSec, phase
//     WallNS): shards run concurrently, so WallNS is the slowest shard's
//     wall and ExpPerSec is recomputed against it, while the phase walls
//     sum;
//   - Pairs: each shard caps its digram table before export, so the
//     merged ranking sums capped inputs (exact for digrams hot on every
//     shard, which is what the superinstruction list cares about).
//
// Nil parts are skipped; merging zero profiles returns nil.
func Merge(parts ...*Profile) *Profile {
	var in []*Profile
	for _, p := range parts {
		if p != nil {
			in = append(in, p)
		}
	}
	if len(in) == 0 {
		return nil
	}

	m := &Profile{}
	ops := map[string]*OpRow{}
	pairs := map[[2]string]uint64{}
	phases := map[string]*PhaseRow{}
	stacks := map[string]*StackRow{}
	var stackKeys []string
	for _, p := range in {
		m.Runs += p.Runs
		m.Experiments += p.Experiments
		m.TotalDyn += p.TotalDyn
		m.TotalVector += p.TotalVector
		if p.WallNS > m.WallNS {
			m.WallNS = p.WallNS
		}
		for i := range p.Ops {
			r := &p.Ops[i]
			o := ops[r.Op]
			if o == nil {
				o = &OpRow{Op: r.Op}
				ops[r.Op] = o
			}
			o.Count += r.Count
			o.Vector += r.Vector
			o.TimeNS += r.TimeNS
		}
		for _, r := range p.Pairs {
			pairs[[2]string{r.First, r.Second}] += r.Count
		}
		for _, r := range p.Phases {
			ph := phases[r.Phase]
			if ph == nil {
				ph = &PhaseRow{Phase: r.Phase}
				phases[r.Phase] = ph
			}
			ph.WallNS += r.WallNS
			ph.Dyn += r.Dyn
		}
		for i := range p.Stacks {
			r := &p.Stacks[i]
			key := r.Phase + "\x00" + trace.SiteKey(r.Func, r.Block, r.Instr)
			s := stacks[key]
			if s == nil {
				s = &StackRow{Phase: r.Phase, Func: r.Func, Block: r.Block, Instr: r.Instr}
				stacks[key] = s
				stackKeys = append(stackKeys, key)
			}
			s.Count += r.Count
			s.TimeNS += r.TimeNS
		}
	}
	if m.WallNS > 0 {
		m.ExpPerSec = float64(m.Experiments) / time.Duration(m.WallNS).Seconds()
	}

	var totalNS uint64
	for _, o := range ops {
		totalNS += o.TimeNS
	}
	for _, o := range ops {
		o.CountPct = pct(o.Count, m.TotalDyn)
		o.TimePct = pct(o.TimeNS, totalNS)
		m.Ops = append(m.Ops, *o)
	}
	sort.Slice(m.Ops, func(i, j int) bool {
		a, b := &m.Ops[i], &m.Ops[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Op < b.Op
	})

	for k, n := range pairs {
		m.Pairs = append(m.Pairs, PairRow{First: k[0], Second: k[1], Count: n})
	}
	sort.Slice(m.Pairs, func(i, j int) bool {
		a, b := &m.Pairs[i], &m.Pairs[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.First != b.First {
			return a.First < b.First
		}
		return a.Second < b.Second
	})
	if len(m.Pairs) > maxPairs {
		m.Pairs = m.Pairs[:maxPairs]
	}

	// Stacks in canonical order: phase presentation order, then site key —
	// the same order a single-node Snapshot emits.
	for _, name := range phaseNames(phases) {
		m.Phases = append(m.Phases, *phases[name])
		var keys []string
		for _, k := range stackKeys {
			if s := stacks[k]; s.Phase == name {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			m.Stacks = append(m.Stacks, *stacks[k])
		}
	}

	// Sites re-derive from the merged (uncapped) stacks, exactly as
	// Snapshot derives them from the collector's phase tables.
	merged := map[string]*SiteRow{}
	var siteOrder []string
	for _, s := range m.Stacks {
		key := trace.SiteKey(s.Func, s.Block, s.Instr)
		r := merged[key]
		if r == nil {
			r = &SiteRow{Site: key}
			merged[key] = r
			siteOrder = append(siteOrder, key)
		}
		r.Count += s.Count
		r.TimeNS += s.TimeNS
	}
	for _, k := range siteOrder {
		m.Sites = append(m.Sites, *merged[k])
	}
	sort.Slice(m.Sites, func(i, j int) bool {
		a, b := &m.Sites[i], &m.Sites[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Site < b.Site
	})
	if len(m.Sites) > maxSites {
		m.Sites = m.Sites[:maxSites]
	}

	return m
}
