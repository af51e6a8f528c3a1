package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAPIVersionHeader: every /v1 response — success or error, any
// route — carries the schema version header.
func TestAPIVersionHeader(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/jobs", "/v1/jobs/nope", "/no/such/route"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Vulfid-Api-Version"); got != APIVersion {
			t.Fatalf("GET %s: Vulfid-Api-Version = %q, want %q", path, got, APIVersion)
		}
	}
}

// TestSubmitUnknownFieldRejected: a typo'd spec field must fail loudly
// with a 400 that names the offending field and quotes the accepted
// schema — never silently run a default study.
func TestSubmitUnknownFieldRejected(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"VectorCopy","isa":"AVX","category":"control","inputz":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s, want 400", resp.Status)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "inputz") {
		t.Fatalf("error %q does not name the unknown field", body.Error)
	}
	if !strings.Contains(body.Error, "inputs") || !strings.Contains(body.Error, "benchmark") {
		t.Fatalf("error %q does not quote the accepted schema", body.Error)
	}
}

// TestSpecFields: the reflected schema matches the documented wire
// fields, so the 400 message can never drift from the struct.
func TestSpecFields(t *testing.T) {
	got := SpecFields()
	want := []string{
		"benchmark", "isa", "category", "scale", "experiments", "campaigns",
		"seed", "workers", "inputs", "detectors", "detector_every_iteration",
		"broadcast_detector", "mask_loop_detector", "whole_register_sites",
		"mask_oblivious", "trace", "atlas", "profile", "backend",
		"timeline", "trace_parent", "shards", "shard_start", "shard_end",
	}
	if len(got) != len(want) {
		t.Fatalf("SpecFields() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpecFields()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSubmitUnknownBackendRejected: a bogus backend name must fail the
// submit with a descriptive 400 naming the accepted spellings, not
// silently fall back to the tree-walker.
func TestSubmitUnknownBackendRejected(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Backend = "llvm"
	resp, raw := postJob(t, ts.URL, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: %s, want 400", resp.Status)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, `"llvm"`) {
		t.Fatalf("error %q does not quote the bad backend", body.Error)
	}
	if !strings.Contains(body.Error, "tree") || !strings.Contains(body.Error, "vm") {
		t.Fatalf("error %q does not list the accepted backends", body.Error)
	}
}

// TestBackendRoundTrip: the backend knob must survive submit → status →
// journal → resumed daemon. The exported study JSON deliberately omits
// the backend (the backends are observably equivalent), so the
// round-trip is pinned on the spec echo and the rehydrated journal.
func TestBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{JournalDir: dir})
	ts := httptest.NewServer(s1.Handler())

	spec := testSpec()
	spec.Backend = "vm"
	resp, raw := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Spec.Backend != "vm" {
		t.Fatalf("status echoed backend = %q, want %q", st.Spec.Backend, "vm")
	}
	waitState(t, s1, st.ID, StateDone)
	ts.Close()
	drain(t, s1)

	// A fresh daemon over the same journal must rehydrate the knob.
	s2 := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s2)
	job := s2.Job(st.ID)
	if job == nil {
		t.Fatalf("job %s not resumed from journal", st.ID)
	}
	if got := job.Status().Spec.Backend; got != "vm" {
		t.Fatalf("resumed spec backend = %q, want %q", got, "vm")
	}
}

// TestInputsRoundTrip: the inputs knob must survive submit → status →
// journal → resumed daemon, and the finished study must echo it.
func TestInputsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{JournalDir: dir})
	ts := httptest.NewServer(s1.Handler())

	spec := testSpec()
	spec.Inputs = 2
	resp, raw := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Spec.Inputs != 2 {
		t.Fatalf("status echoed inputs = %d, want 2", st.Spec.Inputs)
	}
	final := waitState(t, s1, st.ID, StateDone)
	var study struct {
		Inputs int `json:"inputs"`
	}
	if err := json.Unmarshal(final.Result, &study); err != nil {
		t.Fatal(err)
	}
	if study.Inputs != 2 {
		t.Fatalf("exported study inputs = %d, want 2", study.Inputs)
	}
	ts.Close()
	drain(t, s1)

	// A fresh daemon over the same journal must rehydrate the knob.
	s2 := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s2)
	job := s2.Job(st.ID)
	if job == nil {
		t.Fatalf("job %s not resumed from journal", st.ID)
	}
	if got := job.Status().Spec.Inputs; got != 2 {
		t.Fatalf("resumed spec inputs = %d, want 2", got)
	}
}

// hugeSpec asks for a 3037000500 × 3037000500 schedule, whose product
// overflows int64. Before Config.Validate bounded the schedule, it was
// accepted and journaled, and RunStudy's result slice then panicked the
// daemon, again on every restart.
const hugeSpec = `{"benchmark":"VectorCopy","isa":"AVX","category":"control","experiments":3037000500,"campaigns":3037000500}`

// TestSubmitOversizedRejected: the oversized schedule and a worker
// count past campaign.MaxWorkers each get a 400 naming the field, and
// nothing is journaled.
func TestSubmitOversizedRejected(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for body, field := range map[string]string{
		hugeSpec: "Campaigns × Experiments",
		`{"benchmark":"VectorCopy","isa":"AVX","category":"control","workers":1000000}`: "Workers",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", body, resp.Status)
		}
		if !strings.Contains(string(raw), field) {
			t.Fatalf("%s: error %s does not name %s", body, raw, field)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), `"t":"submit"`) {
			t.Fatalf("%s journaled a rejected spec: %s", ent.Name(), b)
		}
	}
}

// TestReplayOversizedFails: a journal that already holds the oversized
// spec, written by a daemon that accepted it, fails that job with the
// Validate error on restart instead of running it, and its status
// reports a total of 0, not an overflowed product.
func TestReplayOversizedFails(t *testing.T) {
	dir := t.TempDir()
	line := `{"t":"submit","id":"jhuge","spec":` + hugeSpec + "}\n"
	if err := os.WriteFile(JournalPath(dir, "jhuge"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s)
	st := waitState(t, s, "jhuge", StateFailed)
	if !strings.Contains(st.Error, "Campaigns × Experiments") {
		t.Fatalf("job failed with %q, want the schedule bound", st.Error)
	}
	if st.Total != 0 {
		t.Fatalf("the failed job reports total %d, want 0", st.Total)
	}
}
