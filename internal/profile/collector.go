package profile

import (
	"sync"

	"vulfi/internal/ir"
	"vulfi/internal/trace"
)

// Canonical campaign phase names, in presentation order. "faulty"
// covers the issue's inject+run pair: injection happens inside the
// faulty execution (the plan arms a dynamic trigger), so the two are
// one measurable interval.
var PhaseOrder = []string{"compile", "golden", "faulty", "compare"}

// siteID is an instruction's resolved static identity: the three frames
// of its folded stack and the canonical trace.SiteKey spelling.
type siteID struct {
	fn, block, instr string
	key              string
}

// siteAgg accumulates one static site's dynamic cost within a phase.
type siteAgg struct {
	id    siteID
	count uint64
	ns    uint64
}

// phaseAgg accumulates one campaign phase's interpreter runs.
type phaseAgg struct {
	dyn   uint64
	sites map[string]*siteAgg
}

// Collector is the study-wide profile aggregator. Probes merge into it
// under a mutex (Add); it keeps no clock of its own — Snapshot reads
// phase walls and throughput off the study's spans. All methods are
// safe for concurrent use from campaign workers.
type Collector struct {
	mu     sync.Mutex
	count  [ir.NumOps]uint64
	vector [ir.NumOps]uint64
	timeNS [ir.NumOps]uint64
	pairs  [ir.NumOps * ir.NumOps]uint64

	runs   int
	phases map[string]*phaseAgg

	// names caches instruction-pointer → resolved identity, so String
	// formatting happens once per static site per interpreter instance,
	// not once per merge.
	names map[*ir.Instr]siteID

	free []*Probe
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		phases: map[string]*phaseAgg{},
		names:  map[*ir.Instr]siteID{},
	}
}

// Probe returns a probe ready to attach to an interpreter, recycling
// one merged by a previous Add when available.
func (c *Collector) Probe() *Probe {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		return p
	}
	return NewProbe()
}

// Add finishes the probe, folds it into the collector under the given
// phase, and recycles it — the caller must not touch p afterwards.
func (c *Collector) Add(phase string, p *Probe) {
	p.Finish()
	c.mu.Lock()
	defer c.mu.Unlock()
	for op := 0; op < int(ir.NumOps); op++ {
		c.count[op] += p.count[op]
		c.vector[op] += p.vector[op]
		c.timeNS[op] += p.timeNS[op]
	}
	for i, n := range p.pairs {
		if n > 0 {
			c.pairs[i] += n
		}
	}
	pa := c.phase(phase)
	pa.dyn += p.total
	for in, n := range p.siteCount {
		id, ok := c.names[in]
		if !ok {
			id = resolve(in)
			c.names[in] = id
		}
		s := pa.sites[id.key]
		if s == nil {
			s = &siteAgg{id: id}
			pa.sites[id.key] = s
		}
		s.count += n
		s.ns += p.siteNS[in]
	}
	c.runs++
	p.reset()
	c.free = append(c.free, p)
}

func (c *Collector) phase(name string) *phaseAgg {
	pa := c.phases[name]
	if pa == nil {
		pa = &phaseAgg{sites: map[string]*siteAgg{}}
		c.phases[name] = pa
	}
	return pa
}

// resolve derives an instruction's static identity, sharing the
// trace.SiteKey spelling with the blame ranking and the atlas so hot
// sites and SDC-prone sites land under the same key.
func resolve(in *ir.Instr) siteID {
	id := siteID{fn: "?", block: "?", instr: in.String()}
	if b := in.Parent; b != nil {
		id.block = b.Nam
		if b.Func != nil {
			id.fn = b.Func.Nam
		}
	}
	id.key = trace.SiteKey(id.fn, id.block, id.instr)
	return id
}
