package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/atlas"
	"vulfi/internal/buildinfo"
	"vulfi/internal/campaign"
	"vulfi/internal/client"
	"vulfi/internal/obs"
	"vulfi/internal/telemetry"
)

// Options configure a campaign server.
type Options struct {
	// JournalDir holds one JSONL journal per job (created if missing).
	JournalDir string
	// QueueSize bounds pending jobs; submissions beyond it get 429 +
	// Retry-After. Default 64.
	QueueSize int
	// Runners is the number of concurrently executing jobs (each one
	// parallelizes internally on the campaign worker pool). Default 1.
	Runners int
	// Fsync makes the journal fdatasync every record (power-loss
	// durability; process-crash durability needs no fsync).
	Fsync bool
	// Registry receives server-level telemetry (queue depth, job
	// counters, job wall-time histogram) and backs /metrics. Default: a
	// fresh registry.
	Registry *telemetry.Registry
	// Logf logs operational messages (default log.Printf).
	Logf func(format string, args ...any)
	// HistoryPath is the study-history JSONL file every completed job is
	// appended to (GET /v1/history, the dashboard trends, `vulfi diff`).
	// Empty defaults to JournalDir/history.jsonl; "none" disables the
	// store.
	HistoryPath string

	// Coordinator enables the shard scheduler: jobs submitted with
	// "shards": N > 1 are split into experiment-index ranges and
	// dispatched to the registered worker fleet (POST /v1/workers)
	// instead of the local campaign pool. Without it such submissions
	// are rejected with a descriptive 400.
	Coordinator bool
	// FleetKey is the API key the coordinator presents to its workers
	// (set it when the workers run with -api-key themselves).
	FleetKey string
	// HarvestEvery is the coordinator's shard poll interval: how often
	// each worker is asked for status and newly checkpointed
	// experiments. Default 2s.
	HarvestEvery time.Duration

	// APIKeys maps accepted API keys to tenant labels. Non-empty turns
	// authentication on: every /v1 request must present a configured key
	// (Authorization: Bearer, X-Api-Key, or ?key=) or gets a 401.
	APIKeys map[string]string
	// TenantQuota bounds each tenant's queued-plus-running jobs;
	// submissions beyond it get 429 + Retry-After. Zero means unlimited.
	TenantQuota int

	// expThrottle pauses after every checkpointed experiment. Test-only:
	// it pins a study's minimum wall time so drain/cancel tests can
	// interrupt mid-run deterministically on arbitrarily fast machines.
	expThrottle time.Duration
	// stallInject runs at the start of each experiment, on the worker
	// goroutine. Test-only: sleeping inside it for a chosen index forges
	// a straggler so watchdog tests are deterministic.
	stallInject func(index int)
	// keepAlive overrides the SSE keep-alive interval
	// (defaultKeepAlive). Test-only.
	keepAlive time.Duration
	// Watchdog thresholds, each zero for its default (see watchdog.go).
	// Test-only: they shrink the watchdog's time scale.
	stallFactor     float64
	stallMin        time.Duration
	watchdogTick    time.Duration
	stallMinSamples int
}

// serverMetrics caches the server's instruments.
type serverMetrics struct {
	submitted, rejected, completed, failed, cancelled, resumed *telemetry.Counter
	queueDepth, running                                        *telemetry.Gauge
	jobWall                                                    *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	return serverMetrics{
		submitted:  reg.Counter("server.jobs.submitted"),
		rejected:   reg.Counter("server.jobs.rejected"),
		completed:  reg.Counter("server.jobs.completed"),
		failed:     reg.Counter("server.jobs.failed"),
		cancelled:  reg.Counter("server.jobs.cancelled"),
		resumed:    reg.Counter("server.jobs.resumed"),
		queueDepth: reg.Gauge("server.queue.depth"),
		running:    reg.Gauge("server.jobs.running"),
		jobWall:    reg.Histogram("server.job.wall"),
	}
}

// Server is the vulfid campaign service: HTTP API + bounded queue +
// scheduler + journal-backed resume.
type Server struct {
	opts Options
	reg  *telemetry.Registry
	mx   serverMetrics
	q    *jobQueue

	// history is the append handle on the study-history store (nil when
	// disabled); historyPath is its resolved location.
	history     *atlas.History
	historyPath string

	// fleet is the worker registry (nil unless Options.Coordinator).
	fleet *fleet

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	draining bool
}

// New builds a server, replays the journal directory (re-queueing every
// unfinished job with its completed experiments as a checkpoint), and
// starts the runner pool. Call Drain to stop it.
func New(opts Options) (*Server, error) {
	if opts.JournalDir == "" {
		return nil, fmt.Errorf("server: JournalDir is required")
	}
	if err := os.MkdirAll(opts.JournalDir, 0o755); err != nil {
		return nil, err
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.Runners <= 0 {
		opts.Runners = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts: opts, reg: opts.Registry, mx: newServerMetrics(opts.Registry),
		q: newJobQueue(opts.QueueSize), baseCtx: ctx, stop: cancel,
		jobs: map[string]*Job{},
	}
	if opts.Coordinator {
		s.fleet = newFleet(func(url string) *client.Client {
			return client.New(url, client.WithAPIKey(opts.FleetKey))
		})
	}
	switch opts.HistoryPath {
	case "none":
	default:
		s.historyPath = opts.HistoryPath
		if s.historyPath == "" {
			s.historyPath = filepath.Join(opts.JournalDir, "history.jsonl")
		}
		h, err := atlas.OpenHistory(s.historyPath)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("history: %w", err)
		}
		s.history = h
	}
	if err := s.resume(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < opts.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) { s.opts.Logf(format, args...) }

// Registry returns the server-level telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// resume replays every journal under JournalDir: terminal jobs are kept
// for status queries; unfinished ones are re-queued with their
// checkpoints, ahead of any new submissions.
func (s *Server) resume() error {
	replays, err := ScanJournals(s.opts.JournalDir, func(path string, err error) {
		s.logf("resume: skipping damaged journal %s: %v", path, err)
	})
	if err != nil {
		return err
	}
	// Deterministic re-queue order regardless of directory iteration.
	sort.Slice(replays, func(i, k int) bool { return replays[i].ID < replays[k].ID })
	for _, rp := range replays {
		path := JournalPath(s.opts.JournalDir, rp.ID)
		var journal *Journal
		if !rp.Terminal() {
			if journal, err = OpenJournal(path, s.opts.Fsync); err != nil {
				s.logf("resume: cannot reopen journal %s: %v", path, err)
				continue
			}
		}
		job := resumedJob(rp, journal)
		s.mu.Lock()
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.mu.Unlock()
		if !rp.Terminal() {
			s.mx.resumed.Inc()
			s.q.Push(job)
			s.logf("resume: job %s re-queued with %d/%d experiments checkpointed",
				job.ID, len(rp.Completed), job.Spec.Total())
		}
	}
	s.mx.queueDepth.Set(int64(s.q.Len()))
	return nil
}

// Drain gracefully stops the server: no new submissions, cooperative
// cancellation of running jobs (in-flight experiments finish and are
// journaled), queued jobs left journaled for the next daemon. It waits
// for the runners until ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop()
	s.q.Close()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Close journals of anything not finished (queued or interrupted).
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, job := range s.jobs {
		if job.journal != nil {
			_ = job.journal.Close()
		}
	}
	if s.history != nil {
		_ = s.history.Close()
	}
	return nil
}

// recordHistory appends a finished job's study to the history store,
// once per job ID. Only a resumed job can find its entry there already:
// a daemon that died after appending it and before journaling the job's
// end resumes the job and runs this again.
func (s *Server) recordHistory(job *Job, sr *campaign.StudyResult) {
	if s.history == nil {
		return
	}
	if job.Status().Resumed && s.historyHolds(job.ID) {
		return
	}
	e := atlas.NewEntry(sr, time.Now())
	e.Job = job.ID
	if err := s.history.Append(e); err != nil {
		s.reg.Counter("atlas.history.errors").Inc()
		s.logf("history: append for job %s failed: %v", job.ID, err)
		return
	}
	s.reg.Counter("atlas.history.appends").Inc()
}

// historyHolds reports whether the history store has an entry for job
// id. An unreadable store reads as not holding it: a duplicate entry is
// better than a lost one.
func (s *Server) historyHolds(id string) bool {
	entries, err := atlas.ReadHistory(s.historyPath)
	if err != nil {
		s.logf("history: %v", err)
		return false
	}
	for _, e := range entries {
		if e.Job == id {
			return true
		}
	}
	return false
}

// newJobID returns a random 12-hex-digit job id.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// ErrTenantQuota rejects a submission because the authenticated tenant
// already has Options.TenantQuota jobs queued or running (HTTP 429).
var ErrTenantQuota = errors.New("tenant job quota exceeded")

// checkShardSpec validates the coordinator-routing knobs of a spec —
// the ones Spec.Config deliberately ignores because they never reach a
// campaign.
func (s *Server) checkShardSpec(spec Spec) error {
	switch {
	case spec.Shards < 0:
		return fmt.Errorf("shards must be non-negative (got %d)", spec.Shards)
	case spec.Shards <= 1:
		return nil
	case !s.opts.Coordinator:
		return fmt.Errorf("shards: %d requires a coordinator; this vulfid runs jobs locally (start it with -coordinator)", spec.Shards)
	case spec.ShardStart != 0 || spec.ShardEnd != 0:
		return fmt.Errorf("shards cannot be combined with an explicit shard_start/shard_end range")
	}
	return nil
}

// activeJobs counts a tenant's queued-plus-running jobs.
func (s *Server) activeJobs(tenant string) int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.Tenant() == tenant {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, j := range jobs {
		switch j.State() {
		case StateQueued, StateRunning:
			n++
		}
	}
	return n
}

// Submit validates a spec, journals it and enqueues the job. It is the
// programmatic form of POST /v1/jobs (ErrQueueFull → backpressure).
func (s *Server) Submit(spec Spec) (*Job, error) {
	return s.SubmitAs(spec, "")
}

// SubmitAs is Submit attributed to an authenticated tenant: the job
// carries the tenant label (journaled, so quotas survive restarts) and
// counts against Options.TenantQuota (ErrTenantQuota → 429).
func (s *Server) SubmitAs(spec Spec, tenant string) (*Job, error) {
	if err := s.checkShardSpec(spec); err != nil {
		return nil, err
	}
	if _, err := spec.Config(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil, fmt.Errorf("server is draining")
	}
	if q := s.opts.TenantQuota; q > 0 && s.activeJobs(tenant) >= q {
		s.mx.rejected.Inc()
		return nil, fmt.Errorf("tenant %q has %d active jobs: %w", tenant, q, ErrTenantQuota)
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	journal, err := OpenJournal(JournalPath(s.opts.JournalDir, id), s.opts.Fsync)
	if err != nil {
		return nil, err
	}
	job := newJob(id, spec, journal)
	job.tenant = tenant
	journal.SubmitAs(id, spec, tenant)
	if err := journal.Err(); err != nil {
		_ = journal.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := s.q.TryPush(job); err != nil {
		_ = journal.Close()
		_ = os.Remove(JournalPath(s.opts.JournalDir, id))
		s.mx.rejected.Inc()
		return nil, err
	}
	s.mu.Lock()
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.mx.submitted.Inc()
	s.mx.queueDepth.Set(int64(s.q.Len()))
	return job, nil
}

// Job looks a job up by id.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// retryAfterSeconds estimates when queue capacity will free up: the mean
// completed-job wall time (floor 1s), defaulting to 15s before any job
// has finished.
func (s *Server) retryAfterSeconds() int {
	snap := s.mx.jobWall.Snapshot()
	if snap.Count == 0 {
		return 15
	}
	mean := time.Duration(int64(snap.Sum) / int64(snap.Count))
	secs := int(mean / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Handler returns the full HTTP API: the /v1 job routes plus the
// telemetry endpoints (/metrics, /debug/vars, /debug/pprof) for the
// server registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /v1/jobs/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/history", s.handleHistory)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", telemetry.Handler(s.reg))
	// Auth sits inside the version stamp: a 401 still tells the client
	// which wire schema it is talking to.
	inner := s.withAuth(mux)
	// Stamp every response with the wire-schema version and the binary's
	// build revision so clients can detect drift without parsing bodies.
	build := buildinfo.Revision()
	if build == "" {
		build = "unknown"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Vulfid-Api-Version", APIVersion)
		w.Header().Set("Vulfid-Build", build)
		inner.ServeHTTP(w, r)
	})
}

// handleHistory serves the study-history store. Per-site tallies are
// stripped by default to keep the trend payload light; ?sites=1 keeps
// them, and ?limit=N returns only the newest N entries.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusNotFound, "history store is disabled")
		return
	}
	entries, err := atlas.ReadHistory(s.historyPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "history: %v", err)
		return
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		if n < len(entries) {
			entries = entries[len(entries)-n:]
		}
	}
	if r.URL.Query().Get("sites") != "1" {
		for i := range entries {
			entries[i].Sites = nil
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": entries})
}

// handleDashboard serves the embedded single-file dashboard: live job
// progress over the SSE stream plus historical trend sparklines from
// /v1/history. No external assets, so it works air-gapped.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(dashboardHTML)
}

// Serve binds addr (":0" allowed) and serves the API until Drain.
func (s *Server) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		// Unknown fields get the accepted schema quoted back, so a typo'd
		// knob is a descriptive 400 rather than a silently default study.
		if f, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			writeError(w, http.StatusBadRequest,
				"bad spec: unknown field %s; the spec accepts: %s",
				f, strings.Join(SpecFields(), ", "))
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	// W3C trace-context propagation: a client that traces its own side
	// sends a standard traceparent header; the study's spans then nest
	// under the client's root span. The spec field wins when both are
	// present (an explicit knob beats ambient context).
	if tp := r.Header.Get("traceparent"); tp != "" && spec.TraceParent == "" {
		spec.TraceParent = tp
	}
	job, err := s.SubmitAs(spec, Tenant(r.Context()))
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleExperiments serves a job's checkpointed (index, seed, result)
// triples — the harvest feed a coordinator polls to pull shard results
// off its workers, usable at any job state. ?from=&to= restrict to an
// index range (half-open; to <= 0 means unbounded).
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	from, to := 0, 0
	for name, dst := range map[string]*int{"from": &from, "to": &to} {
		if q := r.URL.Query().Get(name); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "%s must be a non-negative integer", name)
				return
			}
			*dst = n
		}
	}
	writeJSON(w, http.StatusOK, api.ExperimentsResponse{
		ID: job.ID, Experiments: job.experimentRecords(from, to),
	})
}

// handleWorkerRegister registers a worker vulfid with the coordinator
// (or refreshes its heartbeat — the call is idempotent and workers
// repeat it on a timer).
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusConflict,
			"not a coordinator (start vulfid with -coordinator to accept workers)")
		return
	}
	var reg api.WorkerRegistration
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		writeError(w, http.StatusBadRequest, "bad registration: %v", err)
		return
	}
	if reg.URL == "" {
		writeError(w, http.StatusBadRequest, "bad registration: url is required")
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.upsert(reg))
}

// handleWorkers serves the fleet view for the dashboard and `vulfi`.
func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	resp := api.WorkersResponse{Coordinator: s.fleet != nil}
	if s.fleet != nil {
		resp.Workers = s.fleet.list()
	}
	if resp.Workers == nil {
		resp.Workers = []api.Worker{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFleet serves the fleet metrics view: per-worker throughput and
// harvest lag aggregated over every job's harvest checkpoints (which
// are journaled, so the history survives coordinator restarts), joined
// with the live worker registry, plus the coordinator's incident and
// stall tallies.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStats(time.Now()))
}

func (s *Server) fleetStats(now time.Time) api.FleetResponse {
	resp := api.FleetResponse{
		Coordinator: s.fleet != nil, Workers: []api.FleetWorkerStats{},
	}
	type acc struct {
		n    int
		ns   int64
		last time.Time
	}
	byWorker := map[string]*acc{}
	var extra []string // checkpoint-only workers, first-seen order
	for _, job := range s.Jobs() {
		for _, c := range job.harvestSnapshot() {
			switch c.Event {
			case "reassigned":
				resp.Reassigned++
				continue
			case "worker_lost":
				resp.WorkersLost++
				continue
			}
			a := byWorker[c.Worker]
			if a == nil {
				a = &acc{}
				byWorker[c.Worker] = a
				extra = append(extra, c.Worker)
			}
			a.n += c.N
			a.ns += c.NS
			if c.At.After(a.last) {
				a.last = c.At
			}
		}
		if wd := job.Watchdog(); wd != nil {
			stalls, _ := wd.snapshot()
			resp.Stalls += int64(len(stalls))
		}
	}
	stats := func(name string) api.FleetWorkerStats {
		st := api.FleetWorkerStats{Worker: name}
		if a := byWorker[name]; a != nil {
			st.Harvested = a.n
			if a.ns > 0 {
				st.ExpPerSec = float64(a.n) / (float64(a.ns) / float64(time.Second))
			}
			if !a.last.IsZero() {
				st.HarvestLagNS = now.Sub(a.last).Nanoseconds()
			}
			delete(byWorker, name)
		}
		return st
	}
	if s.fleet != nil {
		for _, v := range s.fleet.list() {
			name := v.Name
			if name == "" {
				name = v.URL
			}
			st := stats(name)
			st.URL, st.State = v.URL, v.State
			st.Assigned, st.Completed, st.Failures = v.Assigned, v.Completed, v.Failures
			resp.Workers = append(resp.Workers, st)
		}
	}
	// Workers that only exist in checkpoint history: departed fleet
	// members whose registration aged out, and the coordinator's own
	// "local" fallback lane.
	for _, name := range extra {
		if _, ok := byWorker[name]; ok {
			resp.Workers = append(resp.Workers, stats(name))
		}
	}
	return resp
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		st.Result = nil // keep listings light; fetch one job for the study
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.jobOr404(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	if !job.RequestCancel() {
		writeError(w, http.StatusConflict, "job %s already %s", job.ID, job.State())
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleExplain serves propagation explanations for a job. Without a
// query it returns the finished study's aggregated propagation profile
// (requires the job to have been submitted with "trace": true). With
// ?index=N it deterministically re-runs that single experiment of the
// job's seed schedule with tracing forced on and returns the full
// fault→divergence→outcome explanation — this works at any job state,
// since the schedule depends only on the spec.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	if q := r.URL.Query().Get("index"); q != "" {
		index, err := strconv.Atoi(q)
		if err != nil || index < 0 || index >= job.Spec.Total() {
			writeError(w, http.StatusBadRequest,
				"index must be an integer in [0,%d)", job.Spec.Total())
			return
		}
		// Spec.Config is already normalized (Validate applies the paper
		// defaults), so the index range matches Spec.Total.
		cfg, err := job.Spec.Config()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, err := campaign.ExplainExperiment(r.Context(), cfg, index)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "explain: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id": job.ID, "index": index, "seed": cfg.ExperimentSeed(index),
			"outcome": res.Outcome.String(), "detected": res.Detected,
			"explanation": res.Explanation,
		})
		return
	}

	st := job.Status()
	if len(st.Result) == 0 {
		writeError(w, http.StatusConflict,
			"job %s is %s: no study result yet (use ?index=N for a single experiment)",
			job.ID, st.State)
		return
	}
	var result struct {
		Propagation json.RawMessage `json:"propagation"`
	}
	if err := json.Unmarshal(st.Result, &result); err != nil || len(result.Propagation) == 0 {
		writeError(w, http.StatusConflict,
			"job %s was not traced; submit with \"trace\": true or use ?index=N", job.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": job.ID, "propagation": result.Propagation,
	})
}

// handleProfile serves a finished job's execution profile — the
// "hot_profile" object of its journaled study result, so the data
// round-trips through the journal and survives daemon restarts. 409
// until the job has a result, and for jobs submitted without
// "profile": true.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	st := job.Status()
	if len(st.Result) == 0 {
		writeError(w, http.StatusConflict,
			"job %s is %s: no study result yet", job.ID, st.State)
		return
	}
	var result struct {
		HotProfile json.RawMessage `json:"hot_profile"`
	}
	if err := json.Unmarshal(st.Result, &result); err != nil || len(result.HotProfile) == 0 {
		writeError(w, http.StatusConflict,
			"job %s was not profiled; submit with \"profile\": true", job.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": job.ID, "hot_profile": result.HotProfile,
	})
}

// handleTimeline serves a job's span timeline and live watchdog status.
//
// The default response carries the "timeline" object of the journaled
// study result (present once the job finishes, if it was submitted with
// "timeline": true) plus the watchdog view — every stall report so far
// and the per-worker interpreter heartbeat counters — which is live at
// any state, so a stuck job can be inspected while it runs.
//
// ?format=trace instead re-exports the finished timeline as Chrome
// trace-event JSON (load in Perfetto or chrome://tracing): one lane per
// worker, spans carrying seed/site/outcome args. 409 until the timeline
// exists.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	st := job.Status()
	var timeline json.RawMessage
	if len(st.Result) > 0 {
		var result struct {
			Timeline json.RawMessage `json:"timeline"`
		}
		if err := json.Unmarshal(st.Result, &result); err == nil {
			timeline = result.Timeline
		}
	}

	if r.URL.Query().Get("format") == "trace" {
		if len(timeline) == 0 {
			writeError(w, http.StatusConflict,
				"job %s has no timeline yet (state %s); submit with \"timeline\": true",
				job.ID, st.State)
			return
		}
		var tl obs.Timeline
		if err := json.Unmarshal(timeline, &tl); err != nil {
			writeError(w, http.StatusInternalServerError, "timeline: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := tl.WriteTraceEvents(w); err != nil {
			s.logf("timeline: trace export for job %s failed: %v", job.ID, err)
		}
		return
	}

	resp := map[string]any{"id": job.ID, "state": st.State}
	if len(timeline) > 0 {
		resp["timeline"] = timeline
	}
	if wd := job.Watchdog(); wd != nil {
		stalls, beats := wd.snapshot()
		resp["watchdog"] = map[string]any{
			"stalls":     stalls,
			"heartbeats": beats,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = job.Registry().WriteProm(w)
}

// defaultKeepAlive is the idle interval after which the SSE stream
// (GET /v1/jobs/{id}/events) emits a ": keep-alive" comment, so proxies
// and NAT boxes don't reap quiet connections while a long experiment
// runs.
const defaultKeepAlive = 15 * time.Second

// handleEvents streams job progress as Server-Sent Events: a "state"
// snapshot on connect, one "experiment" event per completed experiment,
// "stall" events when the watchdog flags a straggler, "state" events on
// transitions, and a final "state" with the result when the job ends.
// While the stream is idle — a long experiment, a quiet queue — it
// emits a ": keep-alive" SSE comment every defaultKeepAlive, so
// proxies and NAT boxes don't reap the connection between events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(typ string, data json.RawMessage) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	snapshot := func() bool {
		raw, err := json.Marshal(job.Status())
		return err == nil && send("state", raw)
	}
	keepAlive := s.opts.keepAlive
	if keepAlive <= 0 {
		keepAlive = defaultKeepAlive
	}
	tick := time.NewTicker(keepAlive)
	defer tick.Stop()
	ch, cancel := job.Subscribe()
	defer cancel()
	if !snapshot() {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Terminal: emit the authoritative final status (the
				// buffered terminal event may have been dropped).
				snapshot()
				return
			}
			if !send(ev.Type, ev.Data) {
				return
			}
		case <-tick.C:
			// Comment line: ignored by EventSource parsers, but traffic
			// on the wire for anything timing out idle connections.
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
