package campaign

import (
	"math/rand"

	"vulfi/internal/core"
	"vulfi/internal/interp"
)

// atlasProfileInputs caps how many pool inputs the activation-profiling
// pass replays. Activation counts are a per-input property; averaging a
// bounded prefix of the deterministic pool keeps profiling cost constant
// while still covering input-dependent control flow.
const atlasProfileInputs = 16

// SiteTally is one static fault site's row in the resiliency atlas: the
// site's identity (canonical key plus its Figure 2 category tag), how
// often it was dynamically live, and how the experiments that hit it
// ended. Tallies ride the study JSON export and the history store.
type SiteTally struct {
	// Site is the static site ID within the instrumented module.
	Site int `json:"site"`
	// Key is the canonical "@func/block: instr" spelling shared with the
	// trace blame ranking (trace.SiteKey).
	Key   string `json:"key"`
	Func  string `json:"func"`
	Block string `json:"block"`
	Instr string `json:"instr"`
	// Category is the site's Figure 2 tag derived from its static slice
	// flags: "control", "address", "control+address" or "pure-data".
	Category string `json:"category"`
	// Lanes is the number of runtime lane sites folded into this row.
	Lanes int `json:"lanes"`
	// Activations counts live (unmasked) dynamic visits of the site's
	// lanes summed over the profiling pass's golden runs.
	Activations uint64 `json:"activations"`
	// Injections counts experiments whose bit flip landed on this site;
	// the outcome fields split them by how those experiments ended.
	Injections int `json:"injections"`
	SDC        int `json:"sdc"`
	Benign     int `json:"benign"`
	Crash      int `json:"crash"`
	Hang       int `json:"hang"`
	Detected   int `json:"detected"`
}

// Figure2Tag names the Figure 2 instruction category of a site with the
// given static slice flags. A site on both the control and address
// slices is tagged with the combined form; a site on neither is
// pure-data.
func Figure2Tag(control, address bool) string {
	switch {
	case control && address:
		return "control+address"
	case control:
		return "control"
	case address:
		return "address"
	default:
		return "pure-data"
	}
}

// profileVisits runs deterministic golden executions with per-lane-site
// activation counting enabled and returns the summed visit counts,
// indexed by lane-site ID. It replays the first min(Inputs, 16) pool
// inputs (or the single input of experiment 0 when the study has no
// pool), so the counts depend only on the configuration — a resumed
// study re-profiles to identical numbers.
func (p *Prepared) profileVisits() ([]uint64, error) {
	visits := make([]uint64, len(p.Inst.LaneSites))
	n := 1
	if p.Cfg.Inputs > 0 {
		n = p.Cfg.Inputs
		if n > atlasProfileInputs {
			n = atlasProfileInputs
		}
	}
	for j := 0; j < n; j++ {
		plan := &core.Plan{Mode: core.CountOnly, Visits: visits}
		x, err := p.newInstance(plan, interp.Options{})
		if err != nil {
			return nil, err
		}
		spec, err := p.Cfg.Benchmark.Setup(x,
			rand.New(rand.NewSource(p.Cfg.InputSeed(j))), p.Cfg.Scale)
		if err != nil {
			return nil, err
		}
		if _, tr := p.observe(x, spec, plan); tr != nil {
			return nil, tr
		}
		p.release(x)
	}
	return visits, nil
}

// siteTallies builds the per-static-site atlas rows from a completed
// study's experiment results: one row per instrumented static site (in
// site-ID order), lanes folded together, with injections attributed
// through each result's InjectionRecord. The attribution is a pure
// function of the results slice, which checkpoint replay restores
// verbatim, so resumed studies tally identically.
func (p *Prepared) siteTallies(results []*ExperimentResult) ([]SiteTally, error) {
	visits, err := p.profileVisits()
	if err != nil {
		return nil, err
	}
	tallies := make([]SiteTally, len(p.Inst.Sites))
	bySite := make(map[int]*SiteTally, len(p.Inst.Sites))
	for i, s := range p.Inst.Sites {
		ref := p.siteRef(core.LaneSite{Site: s})
		tallies[i] = SiteTally{
			Site: s.ID, Key: ref.Key(),
			Func: ref.Func, Block: ref.Block, Instr: ref.Instr,
			Category: Figure2Tag(s.Flags.Control, s.Flags.Address),
		}
		bySite[s.ID] = &tallies[i]
	}
	for _, ls := range p.Inst.LaneSites {
		if t := bySite[ls.Site.ID]; t != nil {
			t.Lanes++
			t.Activations += visits[ls.ID]
		}
	}
	attributed := p.reg.Counter("atlas.attributed")
	unattributed := p.reg.Counter("atlas.unattributed")
	for _, r := range results {
		if r == nil {
			continue
		}
		// Width==0 means the injection never fired (vacuous experiment or
		// unreached target); such experiments have no site to blame.
		if r.Record.Width == 0 {
			unattributed.Inc()
			continue
		}
		id := r.Record.LaneSiteID
		if id < 0 || id >= int64(len(p.Inst.LaneSites)) {
			unattributed.Inc()
			continue
		}
		t := bySite[p.Inst.LaneSites[id].Site.ID]
		if t == nil {
			unattributed.Inc()
			continue
		}
		attributed.Inc()
		t.Injections++
		switch r.Outcome {
		case OutcomeSDC:
			t.SDC++
		case OutcomeBenign:
			t.Benign++
		case OutcomeCrash:
			t.Crash++
			if r.Hang {
				t.Hang++
			}
		}
		if r.Detected {
			t.Detected++
		}
	}
	p.reg.Counter("atlas.sites").Add(uint64(len(tallies)))
	return tallies, nil
}
