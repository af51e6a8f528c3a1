package campaign

import (
	"sort"

	"vulfi/internal/core"
	"vulfi/internal/exec"
	"vulfi/internal/vm"
)

// Golden-state forking (DESIGN.md §11). Before its flip a faulty run is
// its golden run, instruction for instruction, so every unobserved
// golden run on the vm backend records snapshots of its state, and each
// faulty run starts from the latest one taken before its target site,
// skipping the shared prefix. After its flip a faulty run whose state
// equals its golden run's at one of the later snapshots would execute
// the golden run's own tail, so it stops there and reports the golden
// run's ending, skipping the shared suffix. Spacing, count and byte
// budget are constants: results do not depend on them.
const (
	// forkFirst is the DynInstrs count at which a golden run's first
	// snapshot is due, and the initial spacing between snapshots.
	forkFirst = 4096
	// forkMax bounds the snapshots one golden run keeps: past it, every
	// other one is dropped and the spacing doubles.
	forkMax = 32
	// forkBudget bounds the saved-state bytes of the golden cache (each
	// entry's post-Setup state and snapshots): a fill records no
	// snapshots while the cache already holds this many. An uncached
	// golden run's snapshots live only as long as its one experiment,
	// so forkMax alone bounds them.
	forkBudget = 64 << 20
)

// forkPoint is one snapshot of a golden run, tagged with the number of
// dynamic fault sites the run had visited when it was taken.
type forkPoint struct {
	snap  *vm.Snapshot
	sites uint64
}

// forkRecorder collects one golden run's snapshots through a
// vm.Recorder, tagging each with the golden plan's site count.
type forkRecorder struct {
	plan    *core.Plan
	spacing uint64
	points  []forkPoint
}

// take keeps s and returns when the next snapshot is due. Past forkMax
// it keeps every other snapshot, the first and the latest included, so
// the survivors sit at twice the spacing, and doubles the spacing.
func (r *forkRecorder) take(s *vm.Snapshot) uint64 {
	r.points = append(r.points, forkPoint{snap: s, sites: r.plan.DynSites})
	if n := len(r.points); n > forkMax {
		for i := 0; 2*i < n; i++ {
			r.points[i] = r.points[2*i]
		}
		clear(r.points[(n+1)/2:])
		r.points = r.points[:(n+1)/2]
		r.spacing *= 2
	}
	return s.DynInstrs() + r.spacing
}

// bytes returns the heap footprint of the kept snapshots. A snapshot
// shares unchanged segments only with snapshots taken next to it, so
// comparing each with its kept predecessor counts every copy once.
func (r *forkRecorder) bytes() int64 {
	var n int64
	var prev *vm.Snapshot
	for _, fp := range r.points {
		n += fp.snap.Bytes(prev)
		prev = fp.snap
	}
	return n
}

// recordForks attaches a snapshot recorder for x's golden run when the
// run can be forked from: it runs on the vm backend, observes nothing
// (trace rings and profile probes must see every instruction), and, on
// a cell that caches golden runs, the cache's saved states are within
// forkBudget. It returns nil otherwise. The caller detaches the
// recorder (see vm.Machine.SetRecorder) before releasing x.
func (p *Prepared) recordForks(x *exec.Instance, plan *core.Plan) *forkRecorder {
	m := machine(x)
	if m == nil || x.It.Observer() != nil || p.golden != nil && p.golden.forkBytes() >= forkBudget {
		return nil
	}
	r := &forkRecorder{plan: plan, spacing: forkFirst}
	m.SetRecorder(&vm.Recorder{Next: forkFirst, Take: r.take})
	return r
}

// forkFor splits g's snapshots at the target-th dynamic site: from is
// the latest one taken before it, nil when none precedes it, and ahead
// are the ones taken at or past it. A faulty run flipping that site
// resumes from and may rejoin g at any of ahead, each of which comes
// after the flip.
func (g *goldenRun) forkFor(target uint64) (from *forkPoint, ahead []forkPoint) {
	i := sort.Search(len(g.forks), func(i int) bool { return g.forks[i].sites >= target })
	if i > 0 {
		from = &g.forks[i-1]
	}
	return from, g.forks[i:]
}

// joinFor attaches to x's faulty run a vm.Join over the snapshots ahead
// of its flip, and returns it. It returns nil, attaching nothing, when
// there are none, on the tree backend, or when x is observed. The
// caller detaches the join before releasing x.
func joinFor(x *exec.Instance, ahead []forkPoint) *vm.Join {
	m := machine(x)
	if m == nil || len(ahead) == 0 || x.It.Observer() != nil {
		return nil
	}
	j := &vm.Join{Snaps: make([]*vm.Snapshot, len(ahead))}
	for i, fp := range ahead {
		j.Snaps[i] = fp.snap
	}
	m.SetJoin(j)
	return j
}

// rejoin ends a faulty run that stopped at a snapshot ahead of its flip,
// tagged with sites, because its state equals its golden run g's there.
// From there it would have executed g's own tail: after its flip an
// InjectOnce plan only counts sites, as g's CountOnly plan does, and the
// faulty budget exceeds g's whole run. So it takes g's ending: no trap,
// g's output (which the caller returns), g's final DynInstrs, DynVector
// and detections, and g's sites after the snapshot added to its own.
// The instructions it did not execute count as skipped, and the run is
// published as though it had executed them.
func (p *Prepared) rejoin(x *exec.Instance, g *goldenRun, plan *core.Plan, sites uint64) {
	if !plan.Injected {
		panic("campaign: a faulty run rejoined its golden run before its flip")
	}
	plan.DynSites += g.DynSites - sites
	p.mx.forkConverged.Inc()
	p.mx.forkSkipped.Add(g.DynInstrs - x.It.DynInstrs)
	x.It.DynInstrs, x.It.DynVector = g.DynInstrs, g.dynVector
	x.It.Detections = append(x.It.Detections[:0], g.detections...)
	x.It.DetectionDyns = append(x.It.DetectionDyns[:0], g.detectionDyns...)
	p.publish(x, plan, nil)
}

// machine returns the vm machine attached to x, or nil on the tree
// backend.
func machine(x *exec.Instance) *vm.Machine {
	m, _ := x.It.Engine().(*vm.Machine)
	return m
}
