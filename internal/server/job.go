package server

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/campaign"
	"vulfi/internal/telemetry"
)

// Event is one live progress notification, streamed to SSE subscribers.
type Event struct {
	// Type is "experiment" (one completed experiment) or "state" (a job
	// state transition, terminal ones carrying the final status).
	Type string
	Data json.RawMessage
}

// Job is one submitted study: its spec, lifecycle state, progress
// counters, checkpoint journal and live subscribers.
type Job struct {
	ID   string
	Spec Spec

	// tenant is the authenticated tenant that submitted the job (set
	// once at construction/resume, before the job is published).
	tenant string

	mu        sync.Mutex
	state     string
	errMsg    string
	resumed   bool
	cancelled bool // user asked for cancellation
	created   time.Time
	started   time.Time
	finished  time.Time

	total, done                  int
	sdc, benign, crash, detected int

	completed map[int]*campaign.ExperimentResult
	result    json.RawMessage // serialized StudyResult once done
	cancel    context.CancelFunc

	// harvests/shardObs are the coordinator's journaled fleet
	// observability: per-worker harvest throughput checkpoints and the
	// timeline/profile snapshots harvested from finished shards. Empty
	// for plain (unsharded) jobs.
	harvests []HarvestCheckpoint
	shardObs []ShardObs

	journal *Journal
	reg     *telemetry.Registry
	subs    map[chan Event]bool

	// wd is the stall watchdog, set for the duration of the run (nil
	// for queued and never-run jobs; kept after finish so stall reports
	// outlive the run).
	wd *watchdog
}

func newJob(id string, spec Spec, journal *Journal) *Job {
	return &Job{
		ID: id, Spec: spec, state: StateQueued, created: time.Now(),
		total: spec.Total(), completed: map[int]*campaign.ExperimentResult{},
		journal: journal, reg: telemetry.NewRegistry(),
		subs: map[chan Event]bool{},
	}
}

// resumedJob rebuilds a job from a journal replay: completed experiments
// become the study's Completed checkpoint, progress counters are
// restored, and terminal jobs keep their serialized result so status
// queries survive restarts.
func resumedJob(rp *Replay, journal *Journal) *Job {
	j := newJob(rp.ID, rp.Spec, journal)
	j.tenant = rp.Tenant
	j.completed = rp.Completed
	j.harvests = rp.Harvests
	j.shardObs = rp.ShardObs
	for _, r := range rp.Completed {
		j.note(r)
	}
	if rp.Terminal() {
		j.state, j.errMsg, j.result = rp.State, rp.Error, rp.Study
	} else {
		j.resumed = len(rp.Completed) > 0 || rp.State != ""
	}
	return j
}

// note folds one experiment result into the progress counters (mu held
// or single-threaded construction).
func (j *Job) note(r *campaign.ExperimentResult) {
	j.done++
	switch r.Outcome {
	case campaign.OutcomeSDC:
		j.sdc++
	case campaign.OutcomeBenign:
		j.benign++
	case campaign.OutcomeCrash:
		j.crash++
	}
	if r.Detected {
		j.detected++
	}
}

// Registry exposes the job's private telemetry registry (campaign phase
// histograms and outcome counters land here).
func (j *Job) Registry() *telemetry.Registry { return j.reg }

// setWatchdog attaches the run's stall watchdog.
func (j *Job) setWatchdog(wd *watchdog) {
	j.mu.Lock()
	j.wd = wd
	j.mu.Unlock()
}

// Watchdog returns the job's stall watchdog (nil if the job never ran).
func (j *Job) Watchdog() *watchdog {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wd
}

// Tenant returns the authenticated tenant that submitted the job.
func (j *Job) Tenant() string { return j.tenant }

// Status snapshots the job as its wire form (GET /v1/jobs/{id}).
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Resumed: j.resumed, Spec: j.Spec,
		Tenant:  j.tenant,
		Created: j.created, Done: j.done, Total: j.total,
		SDC: j.sdc, Benign: j.benign, Crash: j.crash, Detected: j.detected,
		Error: j.errMsg, Result: j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// addResult folds one finished experiment into the job, whether the
// local campaign pool ran it or a shard harvest fetched it: journal
// (crash safety — a restarted job replays these triples instead of
// re-running or re-fetching them), harvest store, progress counters and
// live broadcast. Indices already present — a reassigned shard
// re-harvesting its overlap — are dropped without journaling twice; the
// return value reports whether the triple was new. Called from worker
// and harvest goroutines.
func (j *Job) addResult(index int, seed int64, r *campaign.ExperimentResult) bool {
	if r == nil {
		return false
	}
	j.mu.Lock()
	if j.completed[index] != nil {
		j.mu.Unlock()
		return false
	}
	// Journal under mu so the dedupe check and the journal append are
	// atomic (the journal's own lock is a leaf).
	j.journal.Experiment(index, seed, r)
	j.completed[index] = r
	j.note(r)
	ev := api.ExperimentEvent{
		Index: index, Seed: seed, Outcome: r.Outcome.String(),
		Detected: r.Detected, Done: j.done, Total: j.total,
	}
	j.mu.Unlock()
	j.broadcast("experiment", ev)
	return true
}

// noteHarvest journals and records one coordinator harvest checkpoint
// (journal-first, like every other durable record).
func (j *Job) noteHarvest(c HarvestCheckpoint) {
	if c.At.IsZero() {
		c.At = time.Now()
	}
	j.mu.Lock()
	j.journal.Harvest(c)
	j.harvests = append(j.harvests, c)
	j.mu.Unlock()
}

// harvestSnapshot copies the job's harvest checkpoints (the /v1/fleet
// aggregation input).
func (j *Job) harvestSnapshot() []HarvestCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]HarvestCheckpoint(nil), j.harvests...)
}

// addShardObs journals and records one finished shard's harvested
// observability. A duplicate (same timeline root, from a coordinator
// restart replaying an already-journaled shard) is dropped without
// journaling twice.
func (j *Job) addShardObs(o ShardObs) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if o.Timeline != nil {
		for _, have := range j.shardObs {
			if have.Timeline != nil && have.Timeline.Root == o.Timeline.Root {
				return
			}
		}
	}
	j.journal.Obs(o.Worker, o.Timeline, o.Profile)
	j.shardObs = append(j.shardObs, o)
}

// shardObsSnapshot copies the harvested shard observability — the merge
// input for the fleet timeline and profile.
func (j *Job) shardObsSnapshot() []ShardObs {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]ShardObs(nil), j.shardObs...)
}

// completedSnapshot copies the job's checkpointed triples — the merge
// input for a sharded job, and the Completed map handed to RunStudy.
func (j *Job) completedSnapshot() map[int]*campaign.ExperimentResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]*campaign.ExperimentResult, len(j.completed))
	for i, r := range j.completed {
		out[i] = r
	}
	return out
}

// experimentRecords returns the checkpointed triples with indices in
// [from, to) (to <= 0 means no upper bound), sorted by index. Seeds
// are recomputed from the deterministic schedule, which is what makes
// the triples portable across daemons.
func (j *Job) experimentRecords(from, to int) []api.ExperimentRecord {
	j.mu.Lock()
	idxs := make([]int, 0, len(j.completed))
	for i := range j.completed {
		if i < from || (to > 0 && i >= to) {
			continue
		}
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]api.ExperimentRecord, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, api.ExperimentRecord{
			Index: i, Seed: campaign.ExperimentSeed(j.Spec.Seed, i), Result: j.completed[i],
		})
	}
	j.mu.Unlock()
	return out
}

// broadcast serializes data and fans it out to subscribers without
// blocking: a slow consumer drops events (the SSE handler re-snapshots
// on terminal states, so nothing user-visible is lost for good).
func (j *Job) broadcast(typ string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		return
	}
	ev := Event{Type: typ, Data: raw}
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers a live event channel; the returned cancel
// unregisters it. The channel closes when the job reaches a terminal
// state.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	j.mu.Lock()
	terminal := terminalState(j.state)
	if !terminal {
		j.subs[ch] = true
	}
	j.mu.Unlock()
	if terminal {
		close(ch)
		return ch, func() {}
	}
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			j.mu.Lock()
			still := j.subs[ch]
			delete(j.subs, ch)
			j.mu.Unlock()
			if still {
				close(ch)
			}
		})
	}
	return ch, cancel
}

// setRunning transitions queued → running (returns false if the job was
// cancelled while queued and must be skipped).
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	j.journal.State(StateRunning, "", nil)
	j.broadcast("state", j.Status())
	return true
}

// finish moves the job to a terminal or interrupted state, journals it,
// notifies subscribers and closes their channels (terminal only).
func (j *Job) finish(state, errMsg string, result json.RawMessage) {
	j.mu.Lock()
	j.state, j.errMsg = state, errMsg
	if result != nil {
		j.result = result
	}
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	j.journal.State(state, errMsg, result)
	j.broadcast("state", j.Status())
	if terminalState(state) {
		j.mu.Lock()
		subs := j.subs
		j.subs = map[chan Event]bool{}
		j.mu.Unlock()
		for ch := range subs {
			close(ch)
		}
	}
}

// RequestCancel asks the job to stop: a queued job is cancelled on the
// spot; a running one gets its context cancelled and finishes
// cooperatively after in-flight experiments complete. Returns false for
// jobs already in a terminal state.
func (j *Job) RequestCancel() bool {
	j.mu.Lock()
	switch {
	case terminalState(j.state):
		j.mu.Unlock()
		return false
	case j.state == StateQueued:
		j.cancelled = true
		j.mu.Unlock()
		j.finish(StateCancelled, "", nil)
		return true
	default:
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
}

// cancelRequested reports whether RequestCancel was called.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// marshalStudy serializes a finished study compactly — journal records
// must stay single-line JSONL, so the indented WriteJSON form is
// re-compacted before embedding.
func marshalStudy(sr *campaign.StudyResult) json.RawMessage {
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		return nil
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil
	}
	return compact.Bytes()
}
