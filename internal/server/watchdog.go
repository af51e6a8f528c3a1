package server

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vulfi/internal/campaign"
)

// watchdog thresholds: an experiment is declared stalled when its age
// exceeds max(defaultStallFactor × rolling P99 wall, defaultStallMin),
// once at least defaultStallMinSamples experiments have completed
// (before that the P99 is noise). The ticker re-evaluates inflight
// experiments every defaultWatchdogTick. Tests shrink them through the
// unexported Options hooks.
const (
	defaultStallFactor     = 4
	defaultStallMinSamples = 8
	defaultWatchdogTick    = time.Second
	defaultStallMin        = 250 * time.Millisecond
)

// StallReport describes one straggler the watchdog flagged: an
// experiment whose wall time exceeded the stall threshold. It carries a
// self-contained repro bundle — everything needed to replay exactly
// that experiment offline — and is back-filled with the injected site
// and final state if the experiment eventually completes (Completed
// false with WorkerAlive true usually means a slow experiment, not a
// wedged worker).
type StallReport struct {
	// Index is the study-order experiment index; Seed its deterministic
	// fault seed (campaign.ExperimentSeed of the spec's seed and Index).
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Worker is the pool lane that ran the experiment.
	Worker int `json:"worker"`
	// ElapsedNS is the experiment's age when flagged; P99NS and
	// ThresholdNS snapshot the rolling P99 and the derived threshold at
	// that moment.
	ElapsedNS   int64 `json:"elapsed_ns"`
	P99NS       int64 `json:"p99_ns"`
	ThresholdNS int64 `json:"threshold_ns"`
	// WorkerAlive reports whether the worker's interpreter heartbeat
	// advanced during the tick that flagged the stall — distinguishing a
	// long-running experiment (alive) from a wedged worker (not).
	WorkerAlive bool `json:"worker_alive"`
	// Completed flips to true — and Site/WallNS are back-filled — if the
	// straggler eventually finishes.
	Completed bool   `json:"completed"`
	Site      string `json:"site,omitempty"`
	WallNS    int64  `json:"wall_ns,omitempty"`
	// Repro replays exactly this experiment.
	Repro ReproBundle `json:"repro"`
}

// ReproBundle is a self-contained recipe for replaying one flagged
// experiment: the job's spec plus the experiment index (the seed is
// derived, but carried for eyeballing). Command is a copy-pasteable
// vulfi invocation that runs the single experiment deterministically.
type ReproBundle struct {
	Spec    Spec   `json:"spec"`
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Command string `json:"command"`
}

// inflight tracks one experiment currently executing on a worker.
type inflight struct {
	index   int
	worker  int
	started time.Time
	// beatAtFlag snapshots the worker's heartbeat counter when the
	// experiment was last inspected, so the next tick can tell whether
	// the interpreter advanced.
	beatSeen uint64
}

// watchdog watches one running job for stalled experiments. The
// campaign pool reports experiment starts (OnStart), completions
// (wrapped around OnResult) and interpreter liveness (Heartbeat); a
// ticker goroutine owned by the scheduler calls check() periodically.
//
// All exported methods are safe for concurrent use. The heartbeat path
// is a single atomic increment — it is called from inside the
// interpreter's budget check (every phi block), so anything heavier
// would show up as study overhead.
type watchdog struct {
	spec  Spec
	total int

	// beats[w] counts interpreter budget-check pulses on worker w.
	beats []atomic.Uint64

	mu       sync.Mutex
	inflight map[int]*inflight // keyed by experiment index
	walls    []int64           // ring of completed experiment walls (ns)
	next     int               // ring write cursor
	filled   bool              // ring has wrapped
	samples  int               // completions observed
	flagged  map[int]int       // index -> position in reports
	reports  []*StallReport

	stalls atomic.Int64 // total stalls flagged (watchdog.stalls metric)

	factor     float64
	minSamples int
	stallMin   time.Duration
	now        func() time.Time
}

// wallRing bounds the rolling-percentile window: big enough that one
// P99 estimate is stable, small enough that copy+sort per tick is
// negligible next to an experiment's wall time.
const wallRing = 512

func newWatchdog(spec Spec, workers int, opts Options) *watchdog {
	w := &watchdog{
		spec:       spec,
		total:      spec.Total(),
		beats:      make([]atomic.Uint64, workers),
		inflight:   make(map[int]*inflight),
		walls:      make([]int64, wallRing),
		flagged:    make(map[int]int),
		factor:     opts.stallFactor,
		minSamples: opts.stallMinSamples,
		stallMin:   opts.stallMin,
		now:        time.Now,
	}
	if w.factor <= 0 {
		w.factor = defaultStallFactor
	}
	if w.minSamples <= 0 {
		w.minSamples = defaultStallMinSamples
	}
	if w.stallMin <= 0 {
		w.stallMin = defaultStallMin
	}
	return w
}

// onStart records that experiment index began executing on worker.
func (w *watchdog) onStart(index, worker int) {
	start := w.now()
	var seen uint64
	if worker >= 0 && worker < len(w.beats) {
		seen = w.beats[worker].Load()
	}
	w.mu.Lock()
	w.inflight[index] = &inflight{
		index: index, worker: worker, started: start, beatSeen: seen,
	}
	w.mu.Unlock()
}

// onFinish records that experiment index completed with the given wall
// time and (when site attribution is available) injected site. If the
// experiment had been flagged as a straggler its report is back-filled.
func (w *watchdog) onFinish(index int, wall time.Duration, site string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.inflight, index)
	w.walls[w.next] = int64(wall)
	w.next = (w.next + 1) % len(w.walls)
	if w.next == 0 {
		w.filled = true
	}
	w.samples++
	if pos, ok := w.flagged[index]; ok {
		r := w.reports[pos]
		r.Completed = true
		r.Site = site
		r.WallNS = int64(wall)
	}
}

// heartbeat is the campaign.Config.Heartbeat hook: one atomic add per
// interpreter budget check.
func (w *watchdog) heartbeat(worker int) {
	if worker >= 0 && worker < len(w.beats) {
		w.beats[worker].Add(1)
	}
}

// p99Locked returns the rolling P99 of completed experiment walls.
// Caller holds w.mu.
func (w *watchdog) p99Locked() int64 {
	n := w.next
	if w.filled {
		n = len(w.walls)
	}
	if n == 0 {
		return 0
	}
	sorted := make([]int64, n)
	copy(sorted, w.walls[:n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(n*99)/100]
}

// check inspects every inflight experiment and flags new stragglers,
// returning the freshly flagged reports (empty most ticks). The
// scheduler broadcasts each as an SSE "stall" event and bumps the
// job's watchdog.stalls counter.
func (w *watchdog) check() []*StallReport {
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.samples < w.minSamples {
		return nil
	}
	p99 := w.p99Locked()
	threshold := int64(float64(p99) * w.factor)
	if min := int64(w.stallMin); threshold < min {
		threshold = min
	}
	var fresh []*StallReport
	for idx, in := range w.inflight {
		if _, done := w.flagged[idx]; done {
			continue
		}
		elapsed := now.Sub(in.started).Nanoseconds()
		if elapsed <= threshold {
			continue
		}
		alive := false
		if in.worker >= 0 && in.worker < len(w.beats) {
			cur := w.beats[in.worker].Load()
			alive = cur != in.beatSeen
			in.beatSeen = cur
		}
		seed := campaign.ExperimentSeed(w.spec.Seed, idx)
		r := &StallReport{
			Index: idx, Seed: seed, Worker: in.worker,
			ElapsedNS: elapsed, P99NS: p99, ThresholdNS: threshold,
			WorkerAlive: alive,
			Repro:       reproBundle(w.spec, idx, seed),
		}
		w.flagged[idx] = len(w.reports)
		w.reports = append(w.reports, r)
		w.stalls.Add(1)
		fresh = append(fresh, r)
	}
	return fresh
}

// snapshot returns a copy of every stall report so far plus the
// per-worker heartbeat counters, for GET /v1/jobs/{id}/timeline.
func (w *watchdog) snapshot() ([]StallReport, []uint64) {
	beats := make([]uint64, len(w.beats))
	for i := range w.beats {
		beats[i] = w.beats[i].Load()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]StallReport, len(w.reports))
	for i, r := range w.reports {
		out[i] = *r
	}
	return out, beats
}

// reproBundle builds the self-contained replay recipe for one
// experiment. The authoritative form is Spec+Index: resolve the spec to
// a campaign.Config and run the experiment at that schedule index —
// both the fault seed and the input-pool draw are index-derived, so the
// replay is exact. Command is the same recipe as a copy-pasteable CLI
// invocation (`vulfi -explain N` runs exactly one schedule index).
func reproBundle(spec Spec, index int, seed int64) ReproBundle {
	cmd := "vulfi -benchmark " + spec.Benchmark +
		" -isa " + spec.ISA +
		" -category " + spec.Category
	if strings.EqualFold(spec.Scale, "large") {
		cmd += " -large"
	}
	if spec.Experiments > 0 {
		cmd += " -experiments " + strconv.Itoa(spec.Experiments)
	}
	if spec.Campaigns > 0 {
		cmd += " -campaigns " + strconv.Itoa(spec.Campaigns)
	}
	cmd += " -seed " + strconv.FormatInt(spec.Seed, 10)
	if spec.Inputs > 0 {
		cmd += " -inputs " + strconv.Itoa(spec.Inputs)
	}
	if spec.Backend != "" {
		cmd += " -backend " + spec.Backend
	}
	if spec.Detectors {
		cmd += " -detectors"
	}
	cmd += " -explain " + strconv.Itoa(index)
	return ReproBundle{Spec: spec, Index: index, Seed: seed, Command: cmd}
}
