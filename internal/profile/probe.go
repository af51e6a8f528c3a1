// Package profile is the interpreter's execution profiler: per-opcode
// dynamic counts and wall-time attribution, per-static-site hot
// rankings keyed by the shared trace.SiteKey spelling, opcode-pair
// frequency mining (the superinstruction candidate list for a compiled
// backend), and a campaign phase breakdown with the study's
// experiments/second, both read off the study's obs spans. It is
// deterministic where it can be — every count is a pure
// function of the study configuration — and honest where it cannot:
// wall-time fields measure this machine, this run.
package profile

import (
	"time"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// A Probe is an interp.Observer.
var _ interp.Observer = (*Probe)(nil)

// Probe is the per-run accumulator a single interpreter instance feeds
// through its Account hook. It is deliberately unsynchronized — one
// probe per running interpreter, merged into the study-wide Collector
// after the run.
//
// Attribution is delta-based: Account fires before an instruction
// executes, so the time between consecutive Account calls — execution
// of the previous instruction plus dispatch overhead — is attributed to
// the previous instruction's opcode and static site. Finish closes the
// final open interval (the terminator that ended the run).
type Probe struct {
	count  [ir.NumOps]uint64
	vector [ir.NumOps]uint64
	timeNS [ir.NumOps]uint64
	// pairs is the dense (prev, next) opcode digram table, flattened as
	// prev*NumOps+next: the superinstruction candidate miner.
	pairs [ir.NumOps * ir.NumOps]uint64

	// siteCount/siteNS key on instruction identity; the Collector
	// resolves pointers to site-key strings once per merge, keeping
	// string formatting off the hot path entirely.
	siteCount map[*ir.Instr]uint64
	siteNS    map[*ir.Instr]uint64

	lastIn *ir.Instr
	lastT  time.Time
	total  uint64
}

// NewProbe returns an empty probe. Prefer Collector.Probe, which
// recycles merged probes across runs.
func NewProbe() *Probe {
	return &Probe{
		siteCount: map[*ir.Instr]uint64{},
		siteNS:    map[*ir.Instr]uint64{},
	}
}

// Account implements interp.Observer: it receives exactly the
// instruction stream behind the interpreter's DynInstrs counter (phis,
// terminators and void instructions included), so Total structurally
// equals the run's DynInstrs.
func (p *Probe) Account(in *ir.Instr) {
	now := time.Now()
	p.closeInterval(now, in)
	p.count[in.Op]++
	if in.IsVectorInstr() {
		p.vector[in.Op]++
	}
	p.siteCount[in]++
	p.total++
	p.lastIn, p.lastT = in, now
}

// Retire implements interp.Observer; a probe attributes on Account
// alone.
func (p *Probe) Retire(*ir.Instr, uint64, interp.Value) {}

// closeInterval attributes the open interval ending at now — the
// previous instruction's execution plus dispatch overhead — and, when
// next is known, advances the digram table.
func (p *Probe) closeInterval(now time.Time, next *ir.Instr) {
	prev := p.lastIn
	if prev == nil {
		return
	}
	d := uint64(now.Sub(p.lastT))
	p.timeNS[prev.Op] += d
	p.siteNS[prev] += d
	if next != nil {
		p.pairs[int(prev.Op)*int(ir.NumOps)+int(next.Op)]++
	}
}

// Finish attributes the final open interval (the last accounted
// instruction's own execution) and ends the run. Safe to call twice.
func (p *Probe) Finish() {
	if p.lastIn != nil {
		p.closeInterval(time.Now(), nil)
		p.lastIn = nil
	}
}

// Total returns the number of accounted instructions so far.
func (p *Probe) Total() uint64 { return p.total }

// reset clears the probe for reuse, keeping its maps allocated.
func (p *Probe) reset() {
	p.count = [ir.NumOps]uint64{}
	p.vector = [ir.NumOps]uint64{}
	p.timeNS = [ir.NumOps]uint64{}
	p.pairs = [ir.NumOps * ir.NumOps]uint64{}
	clear(p.siteCount)
	clear(p.siteNS)
	p.lastIn = nil
	p.total = 0
}
