// Package server turns the one-shot campaign CLIs into a long-lived
// study service: an HTTP/JSON API over a bounded job queue, a scheduler
// that runs study cells on the campaign worker pool, and a crash-safe
// JSONL journal that checkpoints every completed experiment so an
// interrupted daemon resumes incomplete jobs on restart with identical
// statistics (the per-index seed schedule is deterministic). Started as
// a coordinator, the same daemon instead splits sharded jobs across a
// registered worker fleet and merges the results byte-identically to a
// single-node run (coordinator.go).
//
// Every job runs through one runJob (scheduler.go), which ends in one
// terminal switch. All local execution — a plain job, a worker's shard
// range, a coordinator's no-fleet fallback shard — goes through
// runLocal, the one place a study is wired to the job's journal,
// registry and stall watchdog; only a sharded job adds the merge.
//
// API surface (all under /v1; 401 when API keys are configured and the
// request carries none of them):
//
//	POST   /v1/jobs          submit a study spec  (202, or 429 when the
//	                         queue or the tenant's quota is full)
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}         status + result when finished
//	GET    /v1/jobs/{id}/events  live progress as Server-Sent Events
//	GET    /v1/jobs/{id}/metrics per-job Prometheus metrics
//	GET    /v1/jobs/{id}/explain propagation profile, or ?index=N for one
//	                             experiment's divergence explanation
//	GET    /v1/jobs/{id}/profile the finished job's execution profile
//	GET    /v1/jobs/{id}/timeline span timeline (?format=trace for Chrome
//	                             trace events) plus live watchdog status
//	GET    /v1/jobs/{id}/experiments checkpointed (index, seed, result)
//	                             triples (?from=&to= bound the range)
//	DELETE /v1/jobs/{id}         cancel (cooperative, between experiments)
//	POST   /v1/workers       register a worker vulfid (idempotent; the
//	                         re-post is the heartbeat)
//	GET    /v1/workers       the coordinator's fleet view
//	GET    /v1/fleet         fleet metrics: per-worker harvest rates,
//	                         lag, reassignment/loss/stall counters
//
// plus the process-wide /metrics, /debug/vars and /debug/pprof endpoints
// from the telemetry package.
//
// The wire types themselves — Spec, Status, the lifecycle states, the
// worker-fleet records — live in the versioned internal/api package,
// shared with the typed internal/client; the aliases below keep the
// historical server.Spec spelling working for in-process users.
package server

import "vulfi/internal/api"

// APIVersion identifies the wire schema of the /v1 API (see
// api.APIVersion for the changelog).
const APIVersion = api.APIVersion

// Wire types, re-exported from the versioned schema package.
type (
	Spec   = api.Spec
	Status = api.Status
)

// Job lifecycle states (see the api package for semantics).
const (
	StateQueued      = api.StateQueued
	StateRunning     = api.StateRunning
	StateDone        = api.StateDone
	StateFailed      = api.StateFailed
	StateCancelled   = api.StateCancelled
	StateInterrupted = api.StateInterrupted
)

// Parsers and schema introspection, re-exported for the CLIs.
var (
	SpecFields    = api.SpecFields
	ParseCategory = api.ParseCategory
	ParseScale    = api.ParseScale
	ParseBackend  = api.ParseBackend
)

func terminalState(s string) bool { return api.TerminalState(s) }
