package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/obs"
	"vulfi/internal/profile"
)

// registerNamed registers a worker with a display name, so the fleet
// observatory tests can assert lane-group and metrics naming.
func registerNamed(t *testing.T, coordURL, workerURL, name string) {
	t.Helper()
	body, _ := json.Marshal(api.WorkerRegistration{URL: workerURL, Name: name})
	resp, err := http.Post(coordURL+"/v1/workers", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("register %s: %s: %s", workerURL, resp.Status, raw)
	}
}

// decodeObservability pulls the timeline and hot profile out of a
// finished job's study result.
func decodeObservability(t *testing.T, result json.RawMessage) (*obs.Timeline, *profile.Profile) {
	t.Helper()
	var out struct {
		Timeline   *obs.Timeline    `json:"timeline"`
		HotProfile *profile.Profile `json:"hot_profile"`
	}
	if err := json.Unmarshal(result, &out); err != nil {
		t.Fatalf("study result: %v", err)
	}
	return out.Timeline, out.HotProfile
}

// stripObservability is stripVolatile plus the observability artifacts
// themselves — used when comparing a fleet-merged study's *triple*
// statistics against single-node (the artifacts are compared
// field-by-field separately, since their wall-clock content legitimately
// differs).
func stripObservability(t *testing.T, result json.RawMessage) map[string]any {
	t.Helper()
	m := stripVolatile(t, result)
	delete(m, "timeline")
	delete(m, "hot_profile")
	return m
}

// profileCountsEqual compares the exactly-composing fields of a merged
// fleet profile against the single-node reference: grand totals,
// per-opcode counts and vector tallies, and the hot-site ranking. This
// is the acceptance criterion "merged hot-profile per-opcode totals
// equal single-node" — wall-time fields are excluded by contract.
func profileCountsEqual(t *testing.T, got, want *profile.Profile) {
	t.Helper()
	if got.Runs != want.Runs || got.Experiments != want.Experiments {
		t.Errorf("runs/experiments = %d/%d, want %d/%d",
			got.Runs, got.Experiments, want.Runs, want.Experiments)
	}
	if got.TotalDyn != want.TotalDyn {
		t.Errorf("TotalDyn = %d, want %d", got.TotalDyn, want.TotalDyn)
	}
	if got.TotalVector != want.TotalVector {
		t.Errorf("TotalVector = %d, want %d", got.TotalVector, want.TotalVector)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("op table: %d rows, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Op != w.Op || g.Count != w.Count || g.Vector != w.Vector {
			t.Errorf("op row %d: %s count=%d vector=%d, want %s count=%d vector=%d",
				i, g.Op, g.Count, g.Vector, w.Op, w.Count, w.Vector)
		}
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("site table: %d rows, want %d", len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if got.Sites[i].Site != want.Sites[i].Site || got.Sites[i].Count != want.Sites[i].Count {
			t.Errorf("site row %d: %s count=%d, want %s count=%d",
				i, got.Sites[i].Site, got.Sites[i].Count,
				want.Sites[i].Site, want.Sites[i].Count)
		}
	}
}

// checkProfileInternalConsistency pins the DynInstrs accounting
// identity on a merged profile: the op table, the uncapped stacks and
// (when uncapped) the site ranking all sum to TotalDyn. This is the
// invariant that must survive even adversity runs where some shard's
// observability was lost with its worker.
func checkProfileInternalConsistency(t *testing.T, p *profile.Profile) {
	t.Helper()
	if p == nil {
		t.Fatal("no merged profile")
	}
	var opSum, stackSum uint64
	for _, o := range p.Ops {
		opSum += o.Count
	}
	for _, s := range p.Stacks {
		stackSum += s.Count
	}
	if opSum != p.TotalDyn {
		t.Errorf("op counts sum to %d, want TotalDyn %d", opSum, p.TotalDyn)
	}
	if stackSum != p.TotalDyn {
		t.Errorf("stack counts sum to %d, want TotalDyn %d", stackSum, p.TotalDyn)
	}
}

// checkFleetTimeline asserts the merged timeline's fleet shape: lane 0
// is the coordinator lane, every expected worker owns a lane group, and
// the span set forms one tree joinable by ID — each shard's study root
// hanging off the coordinator dispatch span its traceparent named.
func checkFleetTimeline(t *testing.T, tl *obs.Timeline, workers ...string) {
	t.Helper()
	if tl == nil {
		t.Fatal("no merged timeline")
	}
	if len(tl.Lanes) == 0 || tl.Lanes[0] != "coordinator" {
		t.Fatalf("lane 0 = %v, want coordinator", tl.Lanes)
	}
	for _, w := range workers {
		found := false
		for _, lane := range tl.Lanes[1:] {
			if strings.HasPrefix(lane, w+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no lane group for worker %q in %v", w, tl.Lanes)
		}
	}
	parent := map[string]bool{}
	for _, s := range tl.Spans {
		parent[s.ID] = true
	}
	shardRoots := 0
	for _, s := range tl.Spans {
		if s.Parent != "" && !parent[s.Parent] {
			t.Errorf("span %s (%s) has unmerged parent %s", s.ID, s.Name, s.Parent)
		}
		if strings.HasPrefix(s.Name, "study[") {
			shardRoots++
			if s.Parent == "" {
				t.Errorf("shard root %s (%s) is unparented — traceparent not propagated",
					s.ID, s.Name)
			}
		}
	}
	if shardRoots == 0 {
		t.Error("merged timeline has no shard study roots")
	}
}

// TestFleetObservatoryEndToEnd is the tentpole acceptance path: a job
// sharded across two named workers with timeline and profile on
// produces (a) the same triple statistics as single-node, (b) a merged
// hot profile whose count fields equal the single-node profile, (c) one
// fleet-wide trace with a coordinator lane plus one lane group per
// worker, exportable as Perfetto trace-event JSON, and (d) a /v1/fleet
// view crediting both workers with harvested work.
func TestFleetObservatoryEndToEnd(t *testing.T) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	workers := []string{"w1", "w2"}
	for _, name := range workers {
		w, wts := startWorker(t, Options{})
		defer drain(t, w)
		defer wts.Close()
		registerNamed(t, cts.URL, wts.URL, name)
	}

	spec := testSpec()
	spec.Timeline = true
	spec.Profile = true
	ref := runToDone(t, c, spec)
	refTL, refProf := decodeObservability(t, ref.Result)
	if refTL == nil || refProf == nil {
		t.Fatal("single-node reference lost its observability artifacts")
	}

	sharded := spec
	sharded.Shards = 3
	got := runToDone(t, c, sharded)

	// (a) Triple statistics are byte-identical to single-node once the
	// volatile and observability fields are stripped.
	if !reflect.DeepEqual(stripObservability(t, got.Result), stripObservability(t, ref.Result)) {
		t.Fatal("sharded observability study diverged from single-node on triple statistics")
	}

	gotTL, gotProf := decodeObservability(t, got.Result)

	// (b) The merged profile reproduces single-node count-for-count.
	profileCountsEqual(t, gotProf, refProf)
	checkProfileInternalConsistency(t, gotProf)

	// (c) The merged timeline is fleet-shaped and joinable.
	checkFleetTimeline(t, gotTL, workers...)
	if gotTL.TraceID != refTL.TraceID {
		t.Errorf("fleet trace ID %s, want the deterministic single-node identity %s",
			gotTL.TraceID, refTL.TraceID)
	}
	if gotTL.Root != refTL.Root {
		t.Errorf("fleet root span %s, want the single-node root %s", gotTL.Root, refTL.Root)
	}
	// The fleet root carries the merged study's summary exactly like the
	// single-node root, plus the shard count.
	rootAttrs := func(tl *obs.Timeline) map[string]string {
		for _, s := range tl.Spans {
			if s.ID == tl.Root {
				return s.Attrs
			}
		}
		t.Fatalf("timeline has no root span %s", tl.Root)
		return nil
	}
	gotRoot, refRoot := rootAttrs(gotTL), rootAttrs(refTL)
	if gotRoot["shards"] != "3" {
		t.Errorf("fleet root shards attr %q, want 3", gotRoot["shards"])
	}
	delete(gotRoot, "shards")
	if !reflect.DeepEqual(gotRoot, refRoot) {
		t.Errorf("fleet root attrs %v, want the single-node root's %v", gotRoot, refRoot)
	}

	// The HTTP surface serves both artifacts: profile as JSON, timeline
	// as Perfetto trace-event JSON with the fleet lanes as thread names.
	resp, err := http.Get(cts.URL + "/v1/jobs/" + got.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var profBody struct {
		HotProfile *profile.Profile `json:"hot_profile"`
	}
	err = json.NewDecoder(resp.Body).Decode(&profBody)
	resp.Body.Close()
	if err != nil || profBody.HotProfile == nil {
		t.Fatalf("GET /profile on sharded job: %v (profile %v)", err, profBody.HotProfile)
	}
	profileCountsEqual(t, profBody.HotProfile, refProf)

	resp, err = http.Get(cts.URL + "/v1/jobs/" + got.ID + "/timeline?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tf)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	laneNames := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				laneNames[n] = true
			}
		}
	}
	if !laneNames["coordinator"] {
		t.Errorf("trace export lanes %v lack the coordinator lane", laneNames)
	}

	// (d) /v1/fleet credits both workers.
	resp, err = http.Get(cts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet api.FleetResponse
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !fleet.Coordinator {
		t.Error("/v1/fleet does not identify the coordinator")
	}
	byName := map[string]api.FleetWorkerStats{}
	for _, w := range fleet.Workers {
		byName[w.Worker] = w
	}
	for _, name := range workers {
		st, ok := byName[name]
		if !ok {
			t.Errorf("/v1/fleet is missing worker %q: %+v", name, fleet.Workers)
			continue
		}
		if st.Harvested == 0 {
			t.Errorf("worker %q credited with 0 harvested experiments", name)
		}
		if st.ExpPerSec <= 0 {
			t.Errorf("worker %q has exp/s %f, want > 0", name, st.ExpPerSec)
		}
	}

	// A plain worker daemon answers /v1/fleet too, as a non-coordinator.
	w, wts := startWorker(t, Options{})
	defer drain(t, w)
	defer wts.Close()
	resp, err = http.Get(wts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var plain api.FleetResponse
	err = json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if err != nil || plain.Coordinator {
		t.Errorf("plain daemon /v1/fleet = %+v (err %v), want coordinator:false", plain, err)
	}
}

// TestFleetEventsAndCounters: killing a worker mid-sharded-study emits
// "fleet" SSE events (worker_lost, then reassigned for the re-planned
// remainder), bumps the coordinator telemetry counters, and lands
// incident checkpoints in the /v1/fleet aggregation — while the merged
// observability artifacts stay well-formed with the totals invariant
// intact (the dead worker's artifacts are gone; its triples are not).
func TestFleetEventsAndCounters(t *testing.T) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	slow, slowTS := startWorker(t, Options{expThrottle: 30 * time.Millisecond})
	defer drain(t, slow)
	registerNamed(t, cts.URL, slowTS.URL, "doomed")

	sharded := testSpec()
	sharded.Shards = 2
	sharded.Timeline = true
	sharded.Profile = true
	job, err := c.Submit(sharded)
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.Job(job.ID).Subscribe()
	defer cancel()

	deadline := time.Now().Add(time.Minute)
	for c.Job(job.ID).Status().Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	slowTS.Close()

	// The subscription channel closes at the terminal state; collect the
	// fleet events seen on the way there.
	var fleetEvents []api.FleetEvent
	for ev := range events {
		if ev.Type != "fleet" {
			continue
		}
		var fe api.FleetEvent
		if err := json.Unmarshal(ev.Data, &fe); err != nil {
			t.Fatalf("fleet event payload: %v", err)
		}
		fleetEvents = append(fleetEvents, fe)
	}
	got := waitState(t, c, job.ID, StateDone)

	kinds := map[string]int{}
	for _, fe := range fleetEvents {
		kinds[fe.Type]++
		if fe.Worker != "doomed" {
			t.Errorf("fleet event %+v names worker %q, want doomed", fe, fe.Worker)
		}
	}
	if kinds["worker_lost"] == 0 {
		t.Errorf("no worker_lost fleet event (saw %v)", kinds)
	}
	if kinds["reassigned"] == 0 {
		t.Errorf("no reassigned fleet event (saw %v)", kinds)
	}

	if n := c.Registry().Counter("coordinator.workers_lost").Value(); n == 0 {
		t.Error("coordinator.workers_lost counter not bumped")
	}
	if n := c.Registry().Counter("coordinator.reassigned").Value(); n == 0 {
		t.Error("coordinator.reassigned counter not bumped")
	}

	fleet := c.fleetStats(time.Now())
	if fleet.WorkersLost == 0 || fleet.Reassigned == 0 {
		t.Errorf("/v1/fleet incident totals = %d lost / %d reassigned, want both > 0",
			fleet.WorkersLost, fleet.Reassigned)
	}

	// The merged artifacts survived the loss: the dead worker's timeline
	// and profile are unharvestable, but what merged is well-formed and
	// internally consistent.
	tl, prof := decodeObservability(t, got.Result)
	checkFleetTimeline(t, tl)
	checkProfileInternalConsistency(t, prof)
	if prof.TotalDyn == 0 {
		t.Error("merged profile counted nothing")
	}
}

// TestFleetHarvestJournalRoundTrip: harvest checkpoints — including the
// per-worker observed throughput data (n triples over ns) and fleet
// incident markers — and harvested shard observability survive journal
// write → replay, which is what lets a restarted coordinator keep its
// fleet metrics history.
func TestFleetHarvestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Submit("j0004", testSpec())
	at := time.Date(2026, 8, 9, 10, 11, 12, 0, time.UTC)
	checkpoints := []HarvestCheckpoint{
		{Worker: "w1", N: 7, NS: int64(350 * time.Millisecond), At: at},
		{Worker: "w2", N: 3, NS: int64(120 * time.Millisecond), At: at.Add(time.Second)},
		{Worker: "w1", Event: "worker_lost", At: at.Add(2 * time.Second)},
		{Worker: "w1", Event: "reassigned", At: at.Add(2 * time.Second)},
	}
	for _, c := range checkpoints {
		j.Harvest(c)
	}
	tl := &obs.Timeline{
		TraceID: "aa", Root: "bb", Start: at, WallNS: 5,
		Workers: 1, Lanes: []string{"control"},
		Spans: []obs.Span{{Name: "study[0,3)", ID: "bb", StartNS: 0, DurNS: 5}},
	}
	hp := &profile.Profile{Runs: 3, TotalDyn: 42,
		Ops: []profile.OpRow{{Op: "add", Count: 42}}}
	j.Obs("w2", tl, hp)
	j.Obs("w1", nil, hp) // profile-only job: timeline side absent
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Harvests, checkpoints) {
		t.Fatalf("harvest checkpoints did not round-trip:\nwant %+v\ngot  %+v",
			checkpoints, rp.Harvests)
	}
	if len(rp.ShardObs) != 2 {
		t.Fatalf("replayed %d shard obs records, want 2", len(rp.ShardObs))
	}
	if o := rp.ShardObs[0]; o.Worker != "w2" || o.Timeline == nil ||
		o.Timeline.Root != "bb" || o.Profile == nil || o.Profile.TotalDyn != 42 {
		t.Fatalf("shard obs 0 did not round-trip: %+v", o)
	}
	if o := rp.ShardObs[1]; o.Worker != "w1" || o.Timeline != nil || o.Profile == nil {
		t.Fatalf("shard obs 1 did not round-trip: %+v", o)
	}
}

// TestCoordinatorRestartKeepsFleetObservability: draining a coordinator
// mid-sharded-study (timeline and profile on) and restarting on the
// same journal must finish with identical triple statistics, well-formed
// merged observability artifacts, and the pre-drain fleet metrics
// history replayed from the journal. Duplicate triples and replayed
// observability after the restart must not corrupt the merge (the
// addShardObs root-dedupe path).
func TestCoordinatorRestartKeepsFleetObservability(t *testing.T) {
	dir := t.TempDir()

	ref := func() Status {
		c := newTestServer(t, coordOptions())
		defer drain(t, c)
		spec := testSpec()
		spec.Timeline = true
		spec.Profile = true
		return runToDone(t, c, spec)
	}()

	opts := coordOptions()
	opts.JournalDir = dir
	opts.expThrottle = 20 * time.Millisecond // shards run locally, slowly
	c1 := newTestServer(t, opts)

	sharded := testSpec()
	sharded.Shards = 2
	sharded.Timeline = true
	sharded.Profile = true
	job, err := c1.Submit(sharded)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for c1.Job(job.ID).Status().Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drain(t, c1)
	if terminalState(c1.Job(job.ID).Status().State) {
		t.Fatal("job finished before the coordinator drained; raise the throttle")
	}

	opts2 := coordOptions()
	opts2.JournalDir = dir
	c2 := newTestServer(t, opts2)
	defer drain(t, c2)
	got := waitState(t, c2, job.ID, StateDone)

	if !reflect.DeepEqual(stripObservability(t, got.Result), stripObservability(t, ref.Result)) {
		t.Fatal("restarted sharded observability study diverged from single-node on triple statistics")
	}
	tl, prof := decodeObservability(t, got.Result)
	checkFleetTimeline(t, tl)
	checkProfileInternalConsistency(t, prof)

	// No shard timeline was merged twice: study roots are unique.
	roots := map[string]int{}
	for _, s := range tl.Spans {
		if strings.HasPrefix(s.Name, "study[") {
			roots[s.ID]++
		}
	}
	for id, n := range roots {
		if n > 1 {
			t.Errorf("shard root %s merged %d times", id, n)
		}
	}

	// The restarted coordinator kept (and extended) the fleet metrics
	// history: the journaled checkpoints credit the local lane.
	fleet := c2.fleetStats(time.Now())
	found := false
	for _, w := range fleet.Workers {
		if w.Worker == "local" && w.Harvested > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("restarted /v1/fleet lost the harvest history: %+v", fleet.Workers)
	}
}

// TestFleetStatsAggregation: the /v1/fleet aggregation arithmetic —
// per-worker triples-per-second from journaled checkpoints, harvest
// lag against now, incident totals — on a job constructed directly.
func TestFleetStatsAggregation(t *testing.T) {
	s := newTestServer(t, coordOptions())
	defer drain(t, s)

	job, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)

	now := time.Now()
	j := s.Job(job.ID)
	j.noteHarvest(HarvestCheckpoint{Worker: "w1", N: 30, NS: int64(2 * time.Second), At: now.Add(-10 * time.Second)})
	j.noteHarvest(HarvestCheckpoint{Worker: "w1", N: 10, NS: int64(2 * time.Second), At: now.Add(-4 * time.Second)})
	j.noteHarvest(HarvestCheckpoint{Worker: "w1", Event: "worker_lost"})
	j.noteHarvest(HarvestCheckpoint{Worker: "w1", Event: "reassigned"})

	fleet := s.fleetStats(now)
	if fleet.WorkersLost != 1 || fleet.Reassigned != 1 {
		t.Errorf("incidents = %d lost / %d reassigned, want 1/1",
			fleet.WorkersLost, fleet.Reassigned)
	}
	var w1 *api.FleetWorkerStats
	for i := range fleet.Workers {
		if fleet.Workers[i].Worker == "w1" {
			w1 = &fleet.Workers[i]
		}
	}
	if w1 == nil {
		t.Fatalf("checkpoint-only worker w1 missing from %+v", fleet.Workers)
	}
	if w1.Harvested != 40 {
		t.Errorf("Harvested = %d, want 40", w1.Harvested)
	}
	// 40 triples over 4s of observed worker wall time.
	if w1.ExpPerSec < 9.9 || w1.ExpPerSec > 10.1 {
		t.Errorf("ExpPerSec = %f, want ~10", w1.ExpPerSec)
	}
	if lag := time.Duration(w1.HarvestLagNS); lag < 3*time.Second || lag > 5*time.Second {
		t.Errorf("HarvestLagNS = %s, want ~4s", lag)
	}
}
