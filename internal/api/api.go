// Package api is the versioned wire schema of the vulfid HTTP/JSON
// API: the job spec, job status and lifecycle states, the worker-fleet
// registration types, and Spec.Config, which turns a wire spec into a
// campaign.Config checked by campaign.Config.Validate (mapping.go). It
// is the one vocabulary shared by the server (internal/server), the
// typed client (internal/client) and the CLIs — a wire knob is declared
// once, here, and every consumer sees the same name, default and
// validation.
package api

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/passes"
)

// APIVersion identifies the wire schema of the /v1 API. Every response
// carries it in the Vulfid-Api-Version header, so clients can detect
// schema drift without parsing bodies. Bumped when the request or
// response schema changes in a way a client could observe (1.1 added
// the "inputs" pool knob and the version header itself; 1.2 added the
// "atlas" spec knob, GET /v1/history, GET /dashboard and the
// Vulfid-Build header; 1.3 added the "profile" spec knob and
// GET /v1/jobs/{id}/profile; 1.4 added the "backend" spec knob; 1.5
// added the "timeline" and "trace_parent" spec knobs — the latter also
// accepted as a W3C traceparent request header on POST /v1/jobs —
// GET /v1/jobs/{id}/timeline and the watchdog "stall" SSE event; 1.6
// added the "shards", "shard_start" and "shard_end" knobs, API-key
// auth with 401 and per-tenant quota 429 responses, the "tenant"
// status field, worker-fleet registration via POST/GET /v1/workers,
// GET /v1/jobs/{id}/experiments and the coordinator's "shard" SSE
// event; 1.7 accepted "timeline" and "profile" on sharded jobs — the
// coordinator harvests each shard's span tree and profile snapshot and
// serves the fleet-wide merge on the usual /timeline and /profile
// sub-resources — and added the fleet metrics view GET /v1/fleet plus
// the coordinator's "fleet" SSE event for worker loss and shard
// reassignment; 1.8 dropped the bucketed "timeline" from "hot_profile",
// whose phase walls and exp/s now read off the study's spans; 1.9
// accepted "trace" on sharded jobs, and a traced study's "propagation"
// now covers every experiment of the study — resumed ones included —
// rather than only those run since the daemon last started; 1.10 made
// an empty "backend" mean "vm" instead of "tree", so a journaled spec
// with no backend resumes on the vm, with byte-identical results).
const APIVersion = "1.10"

// Job lifecycle states. A job moves queued → running → {done, failed,
// cancelled}; cancellation can also hit a queued job directly. A
// drained daemon leaves its unfinished jobs journaled as "interrupted"
// (non-terminal) and the next daemon re-queues them with the completed
// experiments replayed.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// TerminalState reports whether a job in this state has finished for
// good (done, failed or cancelled — "interrupted" resumes on restart).
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the wire form of one study cell: the JSON body of POST
// /v1/jobs. Zero-valued counts inherit the paper's defaults (100
// experiments × 20 campaigns).
//
// # Request schema (POST /v1/jobs)
//
// Unknown fields are rejected with a descriptive 400, so typos never
// silently run a default study. All fields below are optional except
// benchmark, isa and category:
//
//	{
//	  "benchmark": "Blackscholes",      // required; see `vulfi -list`
//	  "isa": "AVX",                     // required; "AVX" or "SSE"
//	  "category": "pure-data",          // required; "pure-data", "control", "address"
//	  "scale": "default",               // "test", "default", "large"
//	  "experiments": 100,               // per campaign; 0 = paper default 100
//	  "campaigns": 20,                  // 0 = paper default 20
//	  "seed": 1,                        // study seed (deterministic schedule)
//	  "workers": 0,                     // experiment parallelism; 0 = GOMAXPROCS
//	  "inputs": 0,                      // input-pool size K; see Spec.Inputs
//	  "detectors": false,               // §III foreach-invariant detectors
//	  "detector_every_iteration": false,
//	  "broadcast_detector": false,
//	  "mask_loop_detector": false,
//	  "whole_register_sites": false,
//	  "mask_oblivious": false,
//	  "trace": false,                   // divergence tracing (disables golden cache)
//	  "atlas": false,                   // per-static-site outcome attribution
//	  "profile": false,                 // execution profiler (hot_profile in the result)
//	  "backend": "vm",                  // execution backend: "vm" or "tree"
//	  "timeline": false,                // span tracing (timeline in the result)
//	  "trace_parent": "",               // W3C traceparent to nest the study under
//	  "shards": 0,                      // coordinator: split across N workers
//	  "shard_start": 0,                 // worker: run indices [shard_start,
//	  "shard_end": 0                    //   shard_end) of the schedule only
//	}
//
// # Response schema
//
// Every /v1 response is JSON, stamped with the Vulfid-Api-Version
// header. Errors are {"error": "..."} with a 4xx/5xx status. POST
// /v1/jobs answers 202 with the job status (429 + Retry-After when the
// queue — or the tenant's quota — is full; 401 when the daemon
// requires an API key and none matched):
//
//	{
//	  "id": "j0123456789ab",
//	  "state": "queued",                // queued|running|done|failed|cancelled
//	  "spec": { ... },                  // the submitted spec, echoed
//	  "tenant": "team-a",               // authenticated tenant, if any
//	  "total": 2000,                    // experiments after defaults
//	  "completed": 0,                   // experiments finished so far
//	  "error": "...",                   // failed jobs only
//	  "result": { ... }                 // finished jobs: the exported study JSON
//	}
//
// GET /v1/jobs lists {"jobs": [status...]} without results; GET
// /v1/jobs/{id} returns one full status; DELETE cancels; the /events,
// /metrics, /explain, /profile, /timeline and /experiments
// sub-resources are documented on their handlers.
type Spec struct {
	Benchmark string `json:"benchmark"`
	ISA       string `json:"isa"`
	Category  string `json:"category"`
	// Scale is "test", "default" (empty) or "large".
	Scale       string `json:"scale,omitempty"`
	Experiments int    `json:"experiments,omitempty"`
	Campaigns   int    `json:"campaigns,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	// Workers bounds the job's experiment parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Inputs is the input-pool size K: experiment i draws its program
	// input from a pool of K seeds (i mod K), enabling golden-run
	// memoization. 0 = a fresh input per experiment (no cache); 1 = the
	// paper-faithful fixed-input mode. Rides through the journal, so
	// resumed jobs keep their pool.
	Inputs int `json:"inputs,omitempty"`

	Detectors              bool `json:"detectors,omitempty"`
	DetectorEveryIteration bool `json:"detector_every_iteration,omitempty"`
	BroadcastDetector      bool `json:"broadcast_detector,omitempty"`
	MaskLoopDetector       bool `json:"mask_loop_detector,omitempty"`
	WholeRegisterSites     bool `json:"whole_register_sites,omitempty"`
	MaskOblivious          bool `json:"mask_oblivious,omitempty"`

	// Trace enables golden-vs-faulty divergence tracing: the finished
	// study carries a propagation profile (GET /v1/jobs/{id}/explain)
	// folded from every experiment's explanation, and the per-job
	// registry gains trace.* metrics when the study ends (a shard-range
	// job leaves them to the coordinator's merge). A resumed or
	// sharded job's profile equals the uninterrupted single-node one:
	// workers journal each explanation with its result, and the
	// coordinator's merge folds the harvested ones. Tracing bypasses the
	// golden-run cache (divergence analysis needs a live golden ring).
	Trace bool `json:"trace,omitempty"`

	// Atlas enables per-static-site outcome attribution: the finished
	// study's JSON carries a "sites" tally table, and the job's history
	// entry records it for longitudinal comparison (vulfi diff).
	Atlas bool `json:"atlas,omitempty"`

	// Profile enables the execution profiler: the finished study's JSON
	// carries a "hot_profile" object (hot opcodes, opcode pairs, hot
	// sites, phase breakdown and exp/s), also served standalone at
	// GET /v1/jobs/{id}/profile. Profiling timestamps every interpreted
	// instruction, so profiled wall times are not comparable to
	// unprofiled runs. On a sharded job the coordinator harvests each
	// shard's profile and serves the merged fleet profile, whose counts
	// equal the single-node run's.
	Profile bool `json:"profile,omitempty"`

	// Backend selects the execution backend: "vm" (or empty, the
	// default) runs the compiled bytecode backend, "tree" the reference
	// tree-walking interpreter. The backends produce byte-identical
	// results (the differential suite pins outcomes, counts, traps and
	// study JSON), so the knob only affects throughput. Rides through
	// the journal, so resumed jobs keep their backend.
	Backend string `json:"backend,omitempty"`

	// Timeline enables hierarchical span tracing: the finished study's
	// JSON carries a "timeline" object (per-worker span lanes, Chrome
	// trace-event exportable), served at GET /v1/jobs/{id}/timeline.
	// Rides through the journal, so resumed jobs keep tracing — and a
	// resumed study's timeline spans only its freshly executed tail. On
	// a sharded job the coordinator harvests each shard's span tree and
	// serves one fleet-wide timeline with a lane group per worker.
	Timeline bool `json:"timeline,omitempty"`

	// TraceParent, when set, is a W3C trace-context traceparent header
	// value ("00-<32hex>-<16hex>-01"): the study adopts its trace ID and
	// nests its root span under the given span, so a remote client's
	// trace parents the server-side spans. POST /v1/jobs also accepts a
	// "traceparent" request header, copied here when this field is
	// empty. Malformed values are rejected with a descriptive 400.
	TraceParent string `json:"trace_parent,omitempty"`

	// Shards asks a coordinator daemon (vulfid -coordinator) to split
	// the study into about this many experiment-index range shards and
	// run them across its registered worker fleet, merging the results
	// into a study byte-identical to a single-node run. 0 or 1 runs the
	// job locally; daemons not started as coordinators reject Shards > 1
	// with a descriptive 400.
	Shards int `json:"shards,omitempty"`

	// ShardStart/ShardEnd restrict execution to experiment indices in
	// the half-open range [ShardStart, ShardEnd) of the deterministic
	// schedule — the wire form of one shard, set by the coordinator on
	// the specs it dispatches to workers. ShardEnd == 0 means the whole
	// schedule.
	ShardStart int `json:"shard_start,omitempty"`
	ShardEnd   int `json:"shard_end,omitempty"`
}

// SpecFields returns the spec's JSON field names in declaration order —
// the accepted request schema, quoted back to clients that send an
// unknown field.
func SpecFields() []string {
	t := reflect.TypeOf(Spec{})
	out := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		if name, _, _ := strings.Cut(tag, ","); name != "" && name != "-" {
			out = append(out, name)
		}
	}
	return out
}

// ParseCategory resolves the CLI/API spelling of a fault-site category.
func ParseCategory(name string) (passes.Category, error) {
	switch strings.ToLower(name) {
	case "pure-data", "puredata", "data":
		return passes.PureData, nil
	case "control", "ctrl":
		return passes.Control, nil
	case "address", "addr":
		return passes.Address, nil
	}
	return 0, fmt.Errorf("unknown category %q (pure-data, control, address)", name)
}

// ParseScale resolves the wire spelling of an input-size regime.
func ParseScale(name string) (benchmarks.Scale, error) {
	switch strings.ToLower(name) {
	case "", "default":
		return benchmarks.ScaleDefault, nil
	case "test", "small":
		return benchmarks.ScaleTest, nil
	case "large":
		return benchmarks.ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q (test, default, large)", name)
}

// ParseBackend resolves the CLI/API spelling of an execution backend.
func ParseBackend(name string) (string, error) {
	switch strings.ToLower(name) {
	case "", "tree", "interp", "interpreter":
		if name == "" {
			return "", nil
		}
		return "tree", nil
	case "vm", "bytecode":
		return "vm", nil
	}
	return "", fmt.Errorf("unknown backend %q (tree, vm)", name)
}

// Total returns the job's experiment count after applying the paper
// defaults RunStudy would apply; for a shard spec it is the shard's
// range size, since only those indices execute. It is 0 when
// campaign.Config.Validate rejects the schedule or the shard range (an
// oversized schedule; an empty, inverted, negative or out-of-schedule
// shard range), because such a job runs no experiment; so it is never
// negative.
func (s Spec) Total() int {
	if s.ShardEnd > 0 {
		if s.ShardStart < 0 || s.ShardStart >= s.ShardEnd || s.ShardEnd > s.ScheduleTotal() {
			return 0
		}
		return s.ShardEnd - s.ShardStart
	}
	return s.ScheduleTotal()
}

// ScheduleTotal returns the full schedule size Campaigns × Experiments
// after defaults, ignoring any shard range — the index space a
// coordinator plans shards over. A schedule over
// campaign.MaxExperiments, which Validate rejects, gives 0.
func (s Spec) ScheduleTotal() int {
	e, c := s.Experiments, s.Campaigns
	if e <= 0 {
		e = 100
	}
	if c <= 0 {
		c = 20
	}
	// Divide rather than multiply, as Validate does, so an overflowing
	// product is caught.
	if c > campaign.MaxExperiments/e {
		return 0
	}
	return e * c
}

// Status is the wire form of a job's state (GET /v1/jobs/{id}).
type Status struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Resumed bool   `json:"resumed,omitempty"`
	Spec    Spec   `json:"spec"`
	// Tenant is the authenticated tenant that submitted the job (empty
	// when the daemon runs without API keys).
	Tenant string `json:"tenant,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Done     int `json:"done"`
	Total    int `json:"total"`
	SDC      int `json:"sdc"`
	Benign   int `json:"benign"`
	Crash    int `json:"crash"`
	Detected int `json:"detected"`

	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// ExperimentEvent is the SSE payload for one completed experiment
// ("experiment" events on GET /v1/jobs/{id}/events).
type ExperimentEvent struct {
	Index    int    `json:"index"`
	Seed     int64  `json:"seed"`
	Outcome  string `json:"outcome"`
	Detected bool   `json:"detected"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
}

// ShardEvent is the SSE payload of the coordinator's "shard" events:
// one per shard lifecycle transition, merged into the job's stream next
// to the per-experiment progress harvested from the workers.
type ShardEvent struct {
	// Lo/Hi delimit the shard's half-open experiment-index range.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Worker is the worker's URL, or "local" when the coordinator ran
	// the shard itself (no live workers).
	Worker string `json:"worker"`
	// State is "assigned", "done" or "failed" (failed shards are
	// re-planned from their unharvested remainder and reassigned).
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// FleetEvent is the SSE payload of the coordinator's "fleet" events:
// fleet-level incidents on a sharded job's stream — a worker going
// unreachable mid-shard, and the shard's unharvested remainder being
// put back on the pending list for reassignment.
type FleetEvent struct {
	// Type is "worker_lost" (a dispatched worker stopped answering) or
	// "reassigned" (a failed shard's remainder went back on the pending
	// list).
	Type string `json:"type"`
	// Worker is the worker's URL ("local" for an in-process shard).
	Worker string `json:"worker"`
	// Lo/Hi delimit the affected experiment-index range, when one is.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Error carries the failure detail, when there is one.
	Error string `json:"error,omitempty"`
}

// FleetWorkerStats is one worker's aggregated harvest observability in
// the coordinator's fleet metrics view (GET /v1/fleet). The counters
// accumulate across jobs and — because every harvest is journaled with
// the experiment checkpoints — across coordinator restarts.
type FleetWorkerStats struct {
	// Worker is the display identity: the registered name when one was
	// given, the URL otherwise, "local" for in-process shards.
	Worker string `json:"worker"`
	URL    string `json:"url,omitempty"`
	// State mirrors the registry view ("alive"/"lost"; empty for the
	// coordinator's local lane, which is not a registered worker).
	State string `json:"state,omitempty"`
	// Harvested counts experiment triples pulled from this worker.
	Harvested int `json:"harvested"`
	// ExpPerSec is the observed harvest throughput: triples over the
	// wall time the worker spent producing them — the signal adaptive
	// shard sizing needs.
	ExpPerSec float64 `json:"exp_per_sec"`
	// HarvestLagNS is the time since the last successful harvest from
	// this worker (0 when it never delivered).
	HarvestLagNS int64 `json:"harvest_lag_ns,omitempty"`
	// Assigned/Completed/Failures mirror the registry's shard counters.
	Assigned  int `json:"assigned,omitempty"`
	Completed int `json:"completed,omitempty"`
	Failures  int `json:"failures,omitempty"`
}

// FleetResponse is the body of GET /v1/fleet: the coordinator's fleet
// metrics — per-worker harvest throughput plus the incident counters
// the "fleet" SSE events increment.
type FleetResponse struct {
	Coordinator bool `json:"coordinator"`
	// Reassigned counts shard ranges re-planned after a failure;
	// WorkersLost counts workers that went unreachable mid-shard.
	Reassigned  int64 `json:"reassigned"`
	WorkersLost int64 `json:"workers_lost"`
	// Stalls counts experiments the per-job watchdogs have flagged as
	// stalled, summed over every known job.
	Stalls  int64              `json:"stalls"`
	Workers []FleetWorkerStats `json:"workers"`
}

// ExperimentRecord is one checkpointed (index, seed, result) triple, as
// served by GET /v1/jobs/{id}/experiments — the coordinator's harvest
// feed. The field names match the journal's "exp" records.
type ExperimentRecord struct {
	Index  int                        `json:"i"`
	Seed   int64                      `json:"seed"`
	Result *campaign.ExperimentResult `json:"r"`
}

// ExperimentsResponse is the body of GET /v1/jobs/{id}/experiments.
type ExperimentsResponse struct {
	ID          string             `json:"id"`
	Experiments []ExperimentRecord `json:"experiments"`
}

// WorkerRegistration is the body of POST /v1/workers: a worker vulfid
// announcing itself to a coordinator. Re-posting the same URL is the
// heartbeat — registration and liveness are one idempotent call.
type WorkerRegistration struct {
	// URL is the base address the coordinator should reach the worker
	// at (e.g. "http://10.0.0.7:8666"). Required; it keys the registry.
	URL string `json:"url"`
	// Name is an optional human label shown in the fleet view.
	Name string `json:"name,omitempty"`
}

// Worker is one registered worker in the coordinator's fleet view
// (GET /v1/workers).
type Worker struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Name string `json:"name,omitempty"`
	// State is "alive" (heartbeat within the TTL) or "lost" (TTL
	// expired, or the last shard dispatched to it failed; a fresh
	// heartbeat revives it).
	State string `json:"state"`
	// Busy marks a worker currently running a shard for this
	// coordinator.
	Busy       bool      `json:"busy,omitempty"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"last_seen"`
	// Beats counts heartbeats since registration — the same
	// beat-counter liveness idiom the experiment watchdog uses.
	Beats int `json:"beats"`
	// Assigned/Completed/Failures count shards dispatched to, finished
	// by, and failed on this worker.
	Assigned  int `json:"assigned"`
	Completed int `json:"completed"`
	Failures  int `json:"failures,omitempty"`
}

// WorkersResponse is the body of GET /v1/workers.
type WorkersResponse struct {
	Coordinator bool     `json:"coordinator"`
	Workers     []Worker `json:"workers"`
}
