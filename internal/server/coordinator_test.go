package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/campaign"
)

// coordOptions are the fast-poll coordinator settings every test here
// uses: harvest aggressively so shard completion is noticed in
// milliseconds, not the production 2s.
func coordOptions() Options {
	return Options{Coordinator: true, HarvestEvery: 20 * time.Millisecond}
}

// startWorker brings up a normal (non-coordinator) vulfid behind an
// httptest listener and returns it with its URL. The caller owns both
// shutdowns; tests that kill a worker mid-study close ts first.
func startWorker(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	w := newTestServer(t, opts)
	ts := httptest.NewServer(w.Handler())
	return w, ts
}

// register adds a worker URL to a coordinator's fleet over the real
// endpoint, asserting the round trip.
func register(t *testing.T, coordURL, workerURL string) {
	t.Helper()
	body, _ := json.Marshal(api.WorkerRegistration{URL: workerURL})
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

// stripVolatile decodes a study result and drops the fields that
// legitimately differ between executions of identical work: wall-time
// aggregates (different clocks) and the build stamp. Everything else —
// outcomes, statistics, site tallies — must match exactly.
func stripVolatile(t *testing.T, result json.RawMessage) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(result, &m); err != nil {
		t.Fatalf("result is not a study: %v", err)
	}
	for _, k := range []string{
		"wall_total_ns", "wall_min_ns", "wall_mean_ns", "wall_max_ns", "build",
	} {
		delete(m, k)
	}
	return m
}

// runToDone submits a spec and waits for completion, returning the
// final status.
func runToDone(t *testing.T, s *Server, spec Spec) Status {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, s, job.ID, StateDone)
}

// TestCoordinatorShardedStudy is the tentpole invariant end to end: a
// job sharded across two real worker daemons must produce exactly the
// single-node study — statistics, campaign rates and atlas site
// tallies, and traced, the propagation summary — with only the wall
// clocks differing. The same coordinator runs the unsharded reference,
// so both paths share one journal dir, registry style and code version.
func TestCoordinatorShardedStudy(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			testCoordinatorSharded(t, traced)
		})
	}
}

func testCoordinatorSharded(t *testing.T, traced bool) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	for i := 0; i < 2; i++ {
		w, wts := startWorker(t, Options{})
		defer drain(t, w)
		defer wts.Close()
		register(t, cts.URL, wts.URL)
	}

	spec := testSpec()
	spec.Atlas = true
	spec.Trace = traced
	ref := runToDone(t, c, spec)

	sharded := spec
	sharded.Shards = 3
	got := runToDone(t, c, sharded)

	want := stripVolatile(t, ref.Result)
	have := stripVolatile(t, got.Result)
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("sharded study diverged from single-node:\nsharded: %v\nsingle:  %v",
			have, want)
	}
	if _, ok := have["sites"]; !ok {
		t.Fatal("merged study lost its atlas site tallies")
	}
	if traced {
		p, _ := have["propagation"].(map[string]any)
		if n, _ := p["traced"].(float64); n == 0 {
			t.Fatalf("merged traced study has propagation %v", have["propagation"])
		}
	}

	// The fleet view records the work.
	resp, err := http.Get(cts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet api.WorkersResponse
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if !fleet.Coordinator || len(fleet.Workers) != 2 {
		t.Fatalf("fleet view = %+v, want coordinator with 2 workers", fleet)
	}
	completed := 0
	for _, w := range fleet.Workers {
		completed += w.Completed
	}
	if completed == 0 {
		t.Fatal("no worker completed a shard")
	}
}

// TestCoordinatorLocalFallback: a coordinator with an empty fleet must
// still finish a sharded job — shards degrade to local execution — and
// the merged result still matches single-node. Traced, the job's
// trace.* metrics count each experiment once although the shard runs
// and the merge share its registry.
func TestCoordinatorLocalFallback(t *testing.T) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)

	for _, traced := range []bool{false, true} {
		spec := testSpec()
		spec.Trace = traced
		ref := runToDone(t, c, spec)

		sharded := spec
		sharded.Shards = 2
		got := runToDone(t, c, sharded)
		if !reflect.DeepEqual(stripVolatile(t, got.Result), stripVolatile(t, ref.Result)) {
			t.Fatalf("traced=%v: locally executed sharded study diverged from single-node", traced)
		}
		if !traced {
			continue
		}
		counted := func(id string) uint64 {
			return c.Job(id).Registry().Counter("trace.experiments").Value()
		}
		if n, want := counted(got.ID), counted(ref.ID); n != want || n == 0 {
			t.Fatalf("sharded job's trace.experiments = %d, single-node job's %d", n, want)
		}
	}
}

// TestCoordinatorWorkerKilledMidStudy: killing a worker's listener
// while it holds shards must not lose the study — the coordinator
// declares it unreachable after consecutive poll failures, re-plans
// the unharvested remainder, and finishes elsewhere with the same
// result.
func TestCoordinatorWorkerKilledMidStudy(t *testing.T) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	// The doomed worker executes slowly, so it is guaranteed to be
	// mid-shard when its listener dies.
	slow, slowTS := startWorker(t, Options{expThrottle: 30 * time.Millisecond})
	defer drain(t, slow)
	register(t, cts.URL, slowTS.URL)

	spec := testSpec()
	ref := runToDone(t, c, spec)

	sharded := spec
	sharded.Shards = 2
	job, err := c.Submit(sharded)
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker make some progress, then kill its listener.
	deadline := time.Now().Add(time.Minute)
	for c.Job(job.ID).Status().Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	slowTS.Close()

	got := waitState(t, c, job.ID, StateDone)
	if !reflect.DeepEqual(stripVolatile(t, got.Result), stripVolatile(t, ref.Result)) {
		t.Fatal("study with a killed worker diverged from single-node")
	}
}

// TestCoordinatorHarvestPages: each poll asks a worker only for the
// triples not yet harvested, so over shards that span several polls
// every experiment index crosses the wire exactly once. The worker runs
// each shard on one goroutine, so its finished indices are a prefix of
// the shard and the first unharvested index bounds them all.
func TestCoordinatorHarvestPages(t *testing.T) {
	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	w := newTestServer(t, Options{expThrottle: 20 * time.Millisecond})
	defer drain(t, w)
	var mu sync.Mutex
	served := map[int]int{}
	inner := w.Handler()
	wts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/experiments") {
			inner.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var body api.ExperimentsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("experiments response: %v", err)
		}
		mu.Lock()
		for _, e := range body.Experiments {
			served[e.Index]++
		}
		mu.Unlock()
		for k, v := range rec.Header() {
			rw.Header()[k] = v
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	defer wts.Close()
	register(t, cts.URL, wts.URL)

	spec := testSpec()
	spec.Workers = 1
	spec.Shards = 2
	got := runToDone(t, c, spec)
	if got.Done != got.Total {
		t.Fatalf("sharded job: %d/%d experiments", got.Done, got.Total)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != got.Total {
		t.Fatalf("worker served %d distinct indices, want %d", len(served), got.Total)
	}
	for i := 0; i < got.Total; i++ {
		if served[i] != 1 {
			t.Fatalf("index %d served %d times, want once (served %v)", i, served[i], served)
		}
	}
}

// TestCoordinatorRejectsForeignRecords: a worker whose harvest
// responses carry one record the coordinator did not ask for — outside
// the schedule, in the other shard's range with a changed outcome, or
// with another seed than the schedule's — fails every poll before the
// record is journaled. The worker is declared unreachable, its shard is
// planned again, and the job ends with every experiment counted once
// and the single-node result.
func TestCoordinatorRejectsForeignRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		// forge returns the foreign record's index and seed, given the
		// asked range [from, to) of a 10-experiment schedule split in two.
		forge func(from, to int) (int, int64)
	}{
		{"out-of-schedule", func(int, int) (int, int64) {
			return 100000, campaign.ExperimentSeed(testSpec().Seed, 100000)
		}},
		{"other-shard", func(from, to int) (int, int64) {
			i := 9
			if to > i {
				i = 0
			}
			return i, campaign.ExperimentSeed(testSpec().Seed, i)
		}},
		{"wrong-seed", func(from, to int) (int, int64) {
			return from, campaign.ExperimentSeed(testSpec().Seed, from) + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestServer(t, coordOptions())
			defer drain(t, c)
			cts := httptest.NewServer(c.Handler())
			defer cts.Close()
			ref := runToDone(t, c, testSpec())
			truth := c.Job(ref.ID).experimentRecords(0, 0)

			w := newTestServer(t, Options{})
			defer drain(t, w)
			inner := w.Handler()
			wts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if !strings.HasSuffix(r.URL.Path, "/experiments") {
					inner.ServeHTTP(rw, r)
					return
				}
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				var body api.ExperimentsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("experiments response: %v", err)
				}
				from, _ := strconv.Atoi(r.URL.Query().Get("from"))
				to, _ := strconv.Atoi(r.URL.Query().Get("to"))
				i, seed := tc.forge(from, to)
				lie := *truth[i%len(truth)].Result
				if lie.Outcome == campaign.OutcomeSDC {
					lie.Outcome = campaign.OutcomeBenign
				} else {
					lie.Outcome = campaign.OutcomeSDC
				}
				// First in the page, so it would win the dedupe against a
				// genuine record of the same index.
				body.Experiments = append([]api.ExperimentRecord{{Index: i, Seed: seed, Result: &lie}},
					body.Experiments...)
				writeJSON(rw, rec.Code, body)
			}))
			defer wts.Close()
			register(t, cts.URL, wts.URL)

			sharded := testSpec()
			sharded.Shards = 2
			got := runToDone(t, c, sharded)
			if got.Done != got.Total {
				t.Fatalf("sharded job: %d/%d experiments", got.Done, got.Total)
			}
			if !reflect.DeepEqual(stripVolatile(t, got.Result), stripVolatile(t, ref.Result)) {
				t.Fatal("study fed a foreign record diverged from single-node")
			}
		})
	}
}

// TestCoordinatorRestartResumesShardedJob: draining a coordinator
// mid-sharded-study and restarting on the same journal must resume the
// job from its harvested triples and finish with the single-node
// result — the crash-safety contract extended to the coordinator role.
func TestCoordinatorRestartResumesShardedJob(t *testing.T) {
	dir := t.TempDir()

	ref := func() Status {
		c := newTestServer(t, coordOptions())
		defer drain(t, c)
		return runToDone(t, c, testSpec())
	}()

	opts := coordOptions()
	opts.JournalDir = dir
	opts.expThrottle = 20 * time.Millisecond // shards run locally, slowly
	c1 := newTestServer(t, opts)

	sharded := testSpec()
	sharded.Shards = 2
	job, err := c1.Submit(sharded)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for c1.Job(job.ID).Status().Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drain(t, c1)

	st := c1.Job(job.ID).Status()
	if terminalState(st.State) {
		t.Fatalf("job finished (%s) before the coordinator drained; raise the throttle", st.State)
	}
	if st.Done == 0 {
		t.Fatal("nothing harvested before drain")
	}

	opts2 := coordOptions()
	opts2.JournalDir = dir
	c2 := newTestServer(t, opts2)
	defer drain(t, c2)
	got := waitState(t, c2, job.ID, StateDone)
	if got.Done != got.Total {
		t.Fatalf("resumed job: %d/%d experiments", got.Done, got.Total)
	}
	if !reflect.DeepEqual(stripVolatile(t, got.Result), stripVolatile(t, ref.Result)) {
		t.Fatal("coordinator-resumed sharded study diverged from single-node")
	}
}

// TestShardSpecRejection: the routing knob is validated at submission
// with descriptive errors — sharding without a coordinator, negative
// counts, combining with an explicit range.
func TestShardSpecRejection(t *testing.T) {
	plain := newTestServer(t, Options{})
	defer drain(t, plain)
	coord := newTestServer(t, coordOptions())
	defer drain(t, coord)

	cases := []struct {
		name   string
		s      *Server
		mutate func(*Spec)
		want   string
	}{
		{"no-coordinator", plain, func(s *Spec) { s.Shards = 2 }, "-coordinator"},
		{"negative", coord, func(s *Spec) { s.Shards = -1 }, "non-negative"},
		{"explicit-range", coord, func(s *Spec) { s.Shards = 2; s.ShardStart = 1; s.ShardEnd = 3 }, "shard_start"},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mutate(&spec)
		_, err := tc.s.Submit(spec)
		if err == nil {
			t.Errorf("%s: submission accepted, want rejection", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Timeline and profile are accepted on sharded jobs since 1.7 (the
	// coordinator harvests and merges them), trace since 1.9 (the merge
	// folds the harvested explanations).
	for _, knob := range []func(*Spec){
		func(s *Spec) { s.Timeline = true },
		func(s *Spec) { s.Profile = true },
		func(s *Spec) { s.Trace = true },
	} {
		spec := testSpec()
		spec.Shards = 2
		knob(&spec)
		job, err := coord.Submit(spec)
		if err != nil {
			t.Fatalf("sharded observability submission rejected: %v", err)
		}
		waitState(t, coord, job.ID, StateDone)
	}
}

// TestExperimentsEndpoint: the harvest feed serves checkpointed
// triples with schedule-derived seeds and honors the range filter.
func TestExperimentsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	st := runToDone(t, s, spec)

	get := func(q string) api.ExperimentsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/experiments" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("experiments%s: %s: %s", q, resp.Status, raw)
		}
		var out api.ExperimentsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := get("")
	if len(all.Experiments) != spec.Total() {
		t.Fatalf("full feed has %d triples, want %d", len(all.Experiments), spec.Total())
	}
	for i, rec := range all.Experiments {
		if rec.Index != i {
			t.Fatalf("feed out of order: position %d holds index %d", i, rec.Index)
		}
		if want := campaign.ExperimentSeed(spec.Seed, rec.Index); rec.Seed != want {
			t.Errorf("index %d: seed %d, want %d", rec.Index, rec.Seed, want)
		}
		if rec.Result == nil {
			t.Errorf("index %d: nil result", rec.Index)
		}
	}
	ranged := get("?from=2&to=5")
	if len(ranged.Experiments) != 3 || ranged.Experiments[0].Index != 2 {
		t.Fatalf("ranged feed = %d triples starting at %d, want 3 starting at 2",
			len(ranged.Experiments), ranged.Experiments[0].Index)
	}
}

// TestAuthRequired: with API keys configured, every /v1 route demands
// a key (401 + WWW-Authenticate), all three presentation forms work,
// and the job is attributed to the key's tenant. The dashboard and
// health endpoints stay open.
func TestAuthRequired(t *testing.T) {
	s := newTestServer(t, Options{
		APIKeys: map[string]string{"sesame": "acme", "tops3cret": "globex"},
	})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJob(t, ts.URL, testSpec())
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless submit: %s: %s", resp.Status, raw)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	if resp.Header.Get("Vulfid-Api-Version") != APIVersion {
		t.Error("401 response is missing the API version stamp")
	}

	for _, open := range []string{"/healthz", "/dashboard"} {
		r, err := http.Get(ts.URL + open)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: %s without a key, want 200", open, r.Status)
		}
	}

	body, _ := json.Marshal(testSpec())
	present := map[string]func(*http.Request){
		"bearer": func(r *http.Request) { r.Header.Set("Authorization", "Bearer sesame") },
		"header": func(r *http.Request) { r.Header.Set("X-Api-Key", "sesame") },
		"query":  func(r *http.Request) { r.URL.RawQuery = "key=sesame" },
	}
	for name, decorate := range present {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		decorate(req)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("%s key: %s (%v)", name, r.Status, err)
		}
		if st.Tenant != "acme" {
			t.Errorf("%s key: job attributed to %q, want acme", name, st.Tenant)
		}
		waitState(t, s, st.ID, StateDone)
	}
}

// TestTenantQuota: a tenant at its quota gets 429 + Retry-After while
// another tenant still submits freely; quota frees up when a job ends.
func TestTenantQuota(t *testing.T) {
	s := newTestServer(t, Options{
		APIKeys:     map[string]string{"a-key": "acme", "g-key": "globex"},
		TenantQuota: 1,
		expThrottle: 20 * time.Millisecond,
	})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(key string) (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(testSpec())
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	first, raw := submit("a-key")
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s: %s", first.Status, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	over, raw := submit("a-key")
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %s: %s", over.Status, raw)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(raw), "quota") {
		t.Errorf("429 body %q does not mention the quota", raw)
	}

	if other, raw := submit("g-key"); other.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant blocked by acme's quota: %s: %s", other.Status, raw)
	}

	// Once the first job finishes, the tenant can submit again.
	waitState(t, s, st.ID, StateDone)
	again, raw := submit("a-key")
	if again.StatusCode != http.StatusAccepted {
		t.Fatalf("post-completion submit: %s: %s", again.Status, raw)
	}
}

// TestWorkerRegistrationErrors: registering against a non-coordinator
// is a 409 naming the fix; a registration without a URL is a 400. The
// fleet endpoint still answers on plain daemons (coordinator: false).
func TestWorkerRegistrationErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(api.WorkerRegistration{URL: "http://127.0.0.1:1"})
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(raw), "-coordinator") {
		t.Fatalf("register on plain daemon: %s: %s", resp.Status, raw)
	}

	r, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var fleet api.WorkersResponse
	err = json.NewDecoder(r.Body).Decode(&fleet)
	r.Body.Close()
	if err != nil || fleet.Coordinator || len(fleet.Workers) != 0 {
		t.Fatalf("plain daemon fleet view = %+v (err %v)", fleet, err)
	}

	c := newTestServer(t, coordOptions())
	defer drain(t, c)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()
	resp2, err := http.Post(cts.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"name":"nameless"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw2), "url") {
		t.Fatalf("url-less registration: %s: %s", resp2.Status, raw2)
	}
}
