package campaign

import (
	"sort"

	"vulfi/internal/core"
	"vulfi/internal/exec"
	"vulfi/internal/vm"
)

// Golden-state forking (DESIGN.md §11). Before its flip a faulty run is
// its golden run, instruction for instruction, so a cached golden run
// on the vm backend records snapshots of its state and each faulty run
// starts from the latest one taken before its target site, skipping
// the shared prefix. Spacing, count and byte budget are constants:
// results do not depend on them.
const (
	// forkFirst is the DynInstrs count at which a golden run's first
	// snapshot is due, and the initial spacing between snapshots.
	forkFirst = 4096
	// forkMax bounds the snapshots one golden run keeps: past it, every
	// other one is dropped and the spacing doubles.
	forkMax = 32
	// forkBudget bounds the saved-state bytes of the golden cache (each
	// entry's post-Setup state and snapshots): a fill records no
	// snapshots while the cache already holds this many.
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
// run can be forked from: the cell caches golden runs, runs on the vm
// backend, observes nothing (trace rings and profile probes must see
// every instruction), and the cache's saved states are within
// forkBudget. It returns nil otherwise. The caller detaches the
// recorder (see vm.Machine.SetRecorder) before releasing x.
func (p *Prepared) recordForks(x *exec.Instance, plan *core.Plan) *forkRecorder {
	m := machine(x)
	if m == nil || p.golden == nil || x.It.Observer() != nil || p.golden.forkBytes() >= forkBudget {
		return nil
	}
	r := &forkRecorder{plan: plan, spacing: forkFirst}
	m.SetRecorder(&vm.Recorder{Next: forkFirst, Take: r.take})
	return r
}

// forkFor returns the latest snapshot taken before the target-th
// dynamic site, or nil when none precedes it.
func (g *goldenRun) forkFor(target uint64) *forkPoint {
	i := sort.Search(len(g.forks), func(i int) bool { return g.forks[i].sites >= target })
	if i == 0 {
		return nil
	}
	return &g.forks[i-1]
}

// machine returns the vm machine attached to x, or nil on the tree
// backend.
func machine(x *exec.Instance) *vm.Machine {
	m, _ := x.It.Engine().(*vm.Machine)
	return m
}
