package campaign

import (
	"fmt"
	"strconv"
	"time"

	"vulfi/internal/obs"
)

// workerCtx carries one study worker's observability identity through
// an experiment: its span lane (nil unless Timeline or Profile is on), its
// heartbeat pulse (nil when Cfg.Heartbeat is unset) and the index of
// the experiment currently executing. One workerCtx belongs to exactly
// one worker goroutine, so none of its fields need synchronization.
type workerCtx struct {
	worker int
	index  int
	lane   *obs.Lane
	beat   func(uint64)
}

// tracing reports whether this worker records spans. Safe on nil.
func (wc *workerCtx) tracing() bool { return wc != nil && wc.lane != nil }

// pulse returns the worker's heartbeat for interp.Options.Pulse (nil
// when none). Safe on nil.
func (wc *workerCtx) pulse() func(uint64) {
	if wc == nil {
		return nil
	}
	return wc.beat
}

// expSpan records the enclosing experiment span once the experiment
// has fully finished. Every attribute derives from the deterministic
// schedule (index, seed) or the deterministic result (outcome, site,
// trap, explanation), never from timing or scheduling, so the canonical
// span tree is identical across runs and worker counts. Optional
// attributes appear only when set.
func (wc *workerCtx) expSpan(p *Prepared, id string, seed int64, start time.Time, r *ExperimentResult) {
	if !wc.tracing() {
		return
	}
	attrs := map[string]string{
		"index":    strconv.Itoa(wc.index),
		"seed":     strconv.FormatInt(seed, 10),
		"outcome":  r.Outcome.String(),
		"detected": strconv.FormatBool(r.Detected),
		"input":    r.InputLabel,
	}
	if r.DynSites > 0 {
		attrs["site"] = r.Record.String()
		attrs["dyn_sites"] = strconv.FormatUint(r.DynSites, 10)
	}
	if r.Hang {
		attrs["hang"] = "true"
	}
	if r.Trap != nil {
		attrs["trap"] = r.Trap.Error()
		if at := r.Trap.At(); at != "" {
			attrs["trap_site"] = at
		}
	}
	if e := r.Explanation; e != nil {
		attrs["slice_class"] = e.SliceClass()
		attrs["depth"] = strconv.Itoa(e.Depth)
	}
	wc.lane.Record("experiment", id, p.obs.Root(), start, r.Wall, attrs)
}

// workerCtx builds worker w's observability context (nil when neither
// spans nor heartbeats are wanted — the common case costs nothing).
func (p *Prepared) workerCtx(w int) *workerCtx {
	var wc *workerCtx
	if p.obs != nil && w < p.obs.NumLanes() {
		wc = &workerCtx{worker: w, lane: p.obs.Lane(w)}
	}
	if hb := p.Cfg.Heartbeat; hb != nil {
		if wc == nil {
			wc = &workerCtx{worker: w}
		}
		wc.beat = func(uint64) { hb(w) }
	}
	return wc
}

// spanID derives a deterministic span ID within the study's trace.
func (p *Prepared) spanID(name string, n int64) string {
	return obs.DeriveSpanID(p.obs.TraceID(), name, n)
}

// traceIdentity resolves the study's trace identity: adopted from
// Config.TraceParent when set (a remote study joins the submitting
// client's trace), derived deterministically from the study key
// otherwise.
func (c Config) traceIdentity() (traceID, parent string) {
	if c.TraceParent != "" {
		if tid, sid, err := obs.ParseTraceparent(c.TraceParent); err == nil {
			return tid, sid
		}
		// Malformed traceparents are rejected by Config.Validate before
		// any collector exists; falling through derives a local trace.
	}
	return obs.DeriveTraceID(fmt.Sprintf("%s seed=%d", c.String(), c.Seed)), ""
}

// NewSpanCollector builds the span collector of the study cfg
// describes: the study's trace identity and root span ID, the given
// number of worker lanes plus the control lane, all anchored to epoch.
// Prepare passes the worker count RunStudy will use and the prepare
// epoch, so the compile span sits at offset zero; a vulfid coordinator
// passes no worker lanes and records its dispatch spans under the same
// root a single-node run of the study derives.
func NewSpanCollector(cfg Config, workers int, epoch time.Time) *obs.Collector {
	tid, parent := cfg.traceIdentity()
	root := obs.DeriveSpanID(tid, studyRootName(cfg), cfg.Seed)
	return obs.NewCollector(tid, root, parent, workers, epoch)
}

// studyRootName names the study's root span: "study" for a whole
// study, "study[lo,hi)" for a shard. Shards of one study share the
// coordinator's trace ID (via traceparent) and the study seed; the
// range keeps their root span IDs distinct — and their rendered names
// tell shards apart in a fleet-merged trace.
func studyRootName(cfg Config) string {
	if cfg.ShardEnd > 0 {
		return fmt.Sprintf("study[%d,%d)", cfg.ShardStart, cfg.ShardEnd)
	}
	return "study"
}

// StudyAttrs renders a study root span's attributes: the cell's
// identity and the qualified summary of sr. Deliberately excludes the
// worker count (so canonical trees compare across parallelism) and any
// timing. A single-campaign margin of error is +Inf, which renders as
// -1 like the study JSON's.
func StudyAttrs(sr *StudyResult) map[string]string {
	cfg := sr.Cfg
	backend := cfg.Backend
	if backend == "" {
		backend = "tree"
	}
	return map[string]string{
		"benchmark":       cfg.Benchmark.Name,
		"isa":             cfg.ISA.Name,
		"category":        cfg.Category.String(),
		"backend":         backend,
		"seed":            strconv.FormatInt(cfg.Seed, 10),
		"experiments":     strconv.Itoa(cfg.Campaigns * cfg.Experiments),
		"campaigns":       strconv.Itoa(cfg.Campaigns),
		"detectors":       strconv.FormatBool(cfg.Detectors),
		"static_sites":    strconv.Itoa(sr.StaticSites),
		"lane_sites":      strconv.Itoa(sr.LaneSites),
		"sdc":             strconv.Itoa(sr.Totals.SDC),
		"benign":          strconv.Itoa(sr.Totals.Benign),
		"crash":           strconv.Itoa(sr.Totals.Crash),
		"mean_sdc_rate":   strconv.FormatFloat(sr.MeanSDC, 'g', -1, 64),
		"margin_of_error": strconv.FormatFloat(finiteOr(sr.MarginOfError, -1), 'g', -1, 64),
		"near_normal":     strconv.FormatBool(sr.NearNormal),
	}
}
