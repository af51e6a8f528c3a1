package trace

import (
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/passes"
)

// maxChain bounds how many corruption-chain links an Explanation keeps
// verbatim; Depth still counts them all.
const maxChain = 8

// InstrRef locates one dynamic instruction. All fields are plain
// strings/ints so an Explanation survives the JSON round trip through
// the service journal.
type InstrRef struct {
	Func  string `json:"func"`
	Block string `json:"block"`
	Instr string `json:"instr"`
	Dyn   uint64 `json:"dyn"`
}

// SiteRef identifies the instrumented fault site of an experiment,
// together with the static slice classification it was enumerated under
// (the paper's Figure 2 taxonomy).
type SiteRef struct {
	SiteID   int    `json:"site_id"`
	Lane     int    `json:"lane"`
	Func     string `json:"func"`
	Block    string `json:"block"`
	Instr    string `json:"instr"`
	Category string `json:"category,omitempty"` // category the study enumerated under

	// StaticControl/StaticAddress are the site's forward-slice flags.
	StaticControl bool `json:"static_control"`
	StaticAddress bool `json:"static_address"`
}

// TrapRef is the JSON-safe crash provenance of a trapped faulty run.
type TrapRef struct {
	Kind  string `json:"kind"`
	Msg   string `json:"msg"`
	Func  string `json:"func,omitempty"`
	Block string `json:"block,omitempty"`
	Instr string `json:"instr,omitempty"`
	Dyn   uint64 `json:"dyn,omitempty"`
}

// ChainLink is one corrupted value on the divergence chain: where it
// retired, which lanes differ, and both runs' formatted values.
type ChainLink struct {
	Ref    InstrRef `json:"ref"`
	Lanes  []int    `json:"lanes"`
	Golden string   `json:"golden"`
	Faulty string   `json:"faulty"`
}

// Explanation explains one experiment: fault site → divergence chain →
// outcome. It is attached to campaign results when tracing is enabled
// and must stay JSON-round-trippable (no IR pointers).
type Explanation struct {
	Outcome   string   `json:"outcome,omitempty"`
	Detected  bool     `json:"detected,omitempty"`
	FaultSite *SiteRef `json:"fault_site,omitempty"`

	// Diverged reports whether the two recordings differ at all; First is
	// the earliest entry whose value (or instruction identity) differs.
	Diverged   bool      `json:"diverged"`
	First      *InstrRef `json:"first_divergence,omitempty"`
	FirstLanes []int     `json:"first_divergence_lanes,omitempty"`

	// Depth counts corrupted dynamic values in the lockstep-aligned
	// window (the dynamic propagation depth through the def-use chain);
	// MaxLaneSpread is the most simultaneously corrupted lanes seen in
	// any single value.
	Depth         int         `json:"depth"`
	MaxLaneSpread int         `json:"max_lane_spread"`
	Chain         []ChainLink `json:"chain,omitempty"`

	// ControlDivergence reports that the two runs retired different
	// instruction sequences (a corrupted branch, or one run terminating
	// early); lockstep comparison stops there.
	ControlDivergence bool      `json:"control_divergence"`
	ControlDivergedAt *InstrRef `json:"control_diverged_at,omitempty"`

	// CrossedControl/CrossedAddress report that some corrupted value is
	// statically used as a branch/select condition or masked-op mask
	// (control) or as a pointer/index operand (address) — the dynamic
	// confirmation of the paper's Figure 2 categories.
	CrossedControl bool `json:"crossed_control"`
	CrossedAddress bool `json:"crossed_address"`

	// GoldenRetired/FaultyRetired are total recorded instruction counts;
	// PostDivergence counts faulty entries past the aligned window.
	GoldenRetired  uint64 `json:"golden_retired"`
	FaultyRetired  uint64 `json:"faulty_retired"`
	PostDivergence uint64 `json:"post_divergence_retired,omitempty"`

	// DetectionDyn is the dynamic index of the faulty run's first
	// detector firing; TimeToDetection is its distance in retired
	// instructions from the first divergence (-1: no detection).
	DetectionDyn    uint64   `json:"detection_dyn,omitempty"`
	TimeToDetection int64    `json:"time_to_detection"`
	Trap            *TrapRef `json:"trap,omitempty"`

	// Truncated means at least one ring dropped old entries, so the
	// analysis may have missed the true first divergence.
	Truncated bool `json:"truncated,omitempty"`
}

// SliceClass names the dynamic slice class the corruption was observed
// to cross into before surfacing: "data", "control", "address", or
// "control+address". Control divergence itself counts as a control
// crossing.
func (e *Explanation) SliceClass() string {
	ctrl := e.CrossedControl || e.ControlDivergence
	switch {
	case ctrl && e.CrossedAddress:
		return "control+address"
	case ctrl:
		return "control"
	case e.CrossedAddress:
		return "address"
	default:
		return "data"
	}
}

// NoteDetection records the faulty run's first detector firing and
// derives time-to-detection from the first divergence.
func (e *Explanation) NoteDetection(dyn uint64) {
	e.DetectionDyn = dyn
	if e.First != nil && dyn >= e.First.Dyn {
		e.TimeToDetection = int64(dyn - e.First.Dyn)
	}
}

// Analyze replays two recordings in lockstep and derives the divergence
// explanation. Both rings must come from runs of the same instrumented
// module (golden in count-only mode), so the instruction streams align
// entry-for-entry until a control divergence.
func Analyze(golden, faulty *Ring) *Explanation {
	e := &Explanation{
		GoldenRetired:   golden.Retired(),
		FaultyRetired:   faulty.Retired(),
		Truncated:       golden.Dropped() > 0 || faulty.Dropped() > 0,
		TimeToDetection: -1,
	}
	n := golden.Len()
	if faulty.Len() < n {
		n = faulty.Len()
	}
	aligned := n
	for i := 0; i < n; i++ {
		g, f := golden.At(i), faulty.At(i)
		if g.Instr != f.Instr {
			// The runs retired different instructions: a corrupted branch
			// redirected control flow. Lockstep value comparison is
			// meaningless from here on.
			e.ControlDivergence = true
			ref := f.Ref()
			e.ControlDivergedAt = &ref
			aligned = i
			break
		}
		lanes := diffLanes(g.Bits, f.Bits)
		if len(lanes) == 0 {
			continue
		}
		e.Depth++
		if len(lanes) > e.MaxLaneSpread {
			e.MaxLaneSpread = len(lanes)
		}
		if e.First == nil {
			e.Diverged = true
			ref := f.Ref()
			e.First = &ref
			e.FirstLanes = lanes
		}
		if len(e.Chain) < maxChain {
			e.Chain = append(e.Chain, ChainLink{
				Ref:    f.Ref(),
				Lanes:  lanes,
				Golden: laneString(g),
				Faulty: laneString(f),
			})
		}
		classifyUses(f.Instr, e)
	}
	// A length mismatch with no instruction mismatch means one run ended
	// early (crash, hang, or an early return) — also a control event.
	if !e.ControlDivergence && golden.Len() != faulty.Len() {
		e.ControlDivergence = true
		if faulty.Len() > aligned {
			ref := faulty.At(aligned).Ref()
			e.ControlDivergedAt = &ref
		}
	}
	if faulty.Len() > aligned {
		e.PostDivergence = uint64(faulty.Len() - aligned)
	}
	if e.ControlDivergence {
		e.Diverged = true
		if e.First == nil {
			e.First = e.ControlDivergedAt
		}
	}
	return e
}

// diffLanes returns the lane indices at which the two payloads differ.
func diffLanes(g, f []uint64) []int {
	n := len(g)
	if len(f) < n {
		n = len(f)
	}
	var lanes []int
	for i := 0; i < n; i++ {
		if g[i] != f[i] {
			lanes = append(lanes, i)
		}
	}
	return lanes
}

// classifyUses folds the static uses of a corrupted instruction into the
// explanation's crossing flags through passes.ClassifyUse, so the
// dynamic classification is comparable with the static Figure 2
// taxonomy; the select condition is additionally treated as control
// (dynamically a corrupted condition steers lane selection even though
// the static slicer does not walk it).
func classifyUses(in *ir.Instr, e *Explanation) {
	f := passes.SliceFlags{Control: e.CrossedControl, Address: e.CrossedAddress}
	for _, u := range in.Uses() {
		passes.ClassifyUse(u.User, u.Index, &f)
		if u.User.Op == ir.OpSelect && u.Index == 0 {
			f.Control = true
		}
	}
	e.CrossedControl, e.CrossedAddress = f.Control, f.Address
}

// laneString formats an entry's value with its static result type.
func laneString(e Entry) string {
	if len(e.Bits) == 0 {
		return "void"
	}
	return interp.Value{Ty: e.Instr.Ty, Bits: e.Bits}.String()
}
