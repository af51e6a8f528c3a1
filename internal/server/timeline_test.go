package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vulfi/internal/campaign"
	"vulfi/internal/obs"
)

// TestTimelineTraceParentRoundTrip pins the full remote-tracing path at
// the HTTP layer: a client that traces its own side submits a job with
// a W3C traceparent header, and the finished study's timeline must
// adopt the client's trace ID and parent its root span under the
// client's span — one coherent trace across the process boundary.
func TestTimelineTraceParentRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clientTrace := obs.DeriveTraceID("vulfi-remote-test")
	clientSpan := obs.DeriveSpanID(clientTrace, "vulfi-remote", 1)

	spec := testSpec()
	spec.Timeline = true
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceparent(clientTrace, clientSpan))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	// The header landed in the journaled spec, so tracing context
	// survives daemon restarts like every other knob.
	if st.Spec.TraceParent == "" {
		t.Fatal("traceparent header not copied into the spec")
	}
	waitState(t, s, st.ID, StateDone)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %s: %s", resp.Status, raw)
	}
	var tr struct {
		Timeline *obs.Timeline `json:"timeline"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Timeline == nil {
		t.Fatalf("no timeline in response: %s", raw)
	}
	if tr.Timeline.TraceID != clientTrace {
		t.Fatalf("server trace ID %s, want the client's %s",
			tr.Timeline.TraceID, clientTrace)
	}
	if tr.Timeline.Parent != clientSpan {
		t.Fatalf("timeline parent %q, want client span %s",
			tr.Timeline.Parent, clientSpan)
	}
	rooted := false
	for _, sp := range tr.Timeline.Spans {
		if sp.ID == tr.Timeline.Root {
			rooted = sp.Parent == clientSpan
		}
	}
	if !rooted {
		t.Fatal("study root span is not parented under the client span")
	}

	// ?format=trace re-exports as Chrome trace-event JSON.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/timeline?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace export: %s: %s", resp.Status, raw)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace export is not trace-event JSON: %v", err)
	}
	spans := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace export has no complete (ph=X) events")
	}
}

// TestTimelineNotTraced: ?format=trace on an untraced job is a 409, and
// the default response still serves the watchdog view.
func TestTimelineNotTraced(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	job, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/timeline?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace export of untraced job: %s, want 409", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status view: %s: %s", resp.Status, raw)
	}
	var tr struct {
		Timeline json.RawMessage `json:"timeline"`
		Watchdog *struct {
			Stalls     []StallReport `json:"stalls"`
			Heartbeats []uint64      `json:"heartbeats"`
		} `json:"watchdog"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Timeline) != 0 {
		t.Fatalf("untraced job served a timeline: %s", tr.Timeline)
	}
	if tr.Watchdog == nil {
		t.Fatalf("no watchdog view in response: %s", raw)
	}
	beat := uint64(0)
	for _, b := range tr.Watchdog.Heartbeats {
		beat += b
	}
	if beat == 0 {
		t.Fatal("no interpreter heartbeats recorded for a completed job")
	}
}

// TestWatchdogStallRepro forges a straggler (a test-only injected sleep
// at one experiment index) and pins the whole watchdog path, for a
// plain job and for a sharded job on a coordinator with no workers,
// whose fallback shards run on the coordinator's own pool and share one
// watchdog: the stall is flagged with the right index, the
// watchdog.stalls counter bumps, a "stall" event reaches the SSE
// stream, /timeline serves the watchdog view, the report is back-filled
// when the straggler finishes, and its repro bundle — the job's spec
// and the index — replays the exact experiment the job ran.
func TestWatchdogStallRepro(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testWatchdogStallRepro(t, shards)
		})
	}
}

func testWatchdogStallRepro(t *testing.T, shards int) {
	const stallIdx = 6 // in the second of two shards
	// No experiment runs before the SSE stream below has subscribed, so
	// the stall event cannot fire ahead of it.
	subscribed := make(chan struct{})
	s := newTestServer(t, Options{
		Coordinator:     shards > 1,
		HarvestEvery:    20 * time.Millisecond,
		watchdogTick:    5 * time.Millisecond,
		stallMin:        30 * time.Millisecond,
		stallMinSamples: 4,
		stallFactor:     2,
		stallInject: func(index int) {
			<-subscribed
			if index == stallIdx {
				time.Sleep(300 * time.Millisecond)
			}
		},
	})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Workers = 2
	spec.Shards = shards
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The handler subscribes before it sends the headers, and the stream
	// ends once the job is terminal.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	close(subscribed)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	if !bytes.Contains(stream, []byte("event: stall\n")) {
		t.Fatalf("no stall event on the SSE stream:\n%s", stream)
	}

	wd := job.Watchdog()
	if wd == nil {
		t.Fatal("finished job has no watchdog")
	}
	stalls, beats := wd.snapshot()
	if len(stalls) == 0 {
		t.Fatal("injected 300ms straggler was never flagged")
	}
	var report *StallReport
	for i := range stalls {
		if stalls[i].Index == stallIdx {
			report = &stalls[i]
		}
	}
	if report == nil {
		t.Fatalf("no stall report for index %d: %+v", stallIdx, stalls)
	}
	if got := job.Registry().Counter("watchdog.stalls").Value(); got == 0 {
		t.Fatal("watchdog.stalls counter not bumped")
	}
	if !report.Completed {
		t.Fatal("straggler finished but its report was not back-filled")
	}
	if report.ElapsedNS <= report.ThresholdNS || report.ThresholdNS <= 0 {
		t.Fatalf("implausible stall report: elapsed %d, threshold %d",
			report.ElapsedNS, report.ThresholdNS)
	}
	if report.Worker < 0 || report.Worker >= len(beats) {
		t.Fatalf("stall worker %d out of range [0,%d)", report.Worker, len(beats))
	}

	var tr struct {
		Watchdog struct {
			Stalls []StallReport `json:"stalls"`
		} `json:"watchdog"`
	}
	tresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(tresp.Body).Decode(&tr)
	tresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Watchdog.Stalls) != len(stalls) {
		t.Fatalf("/timeline serves %d stalls, the watchdog holds %d",
			len(tr.Watchdog.Stalls), len(stalls))
	}

	// The repro bundle is self-contained: resolving its spec and running
	// its index replays the flagged experiment exactly. vulfi has no
	// flag for the test scale, so there is no command to copy.
	b := report.Repro
	if !reflect.DeepEqual(b.Spec, job.Spec) || b.Index != stallIdx {
		t.Fatalf("repro bundle %+v does not match the stalled experiment of %+v", b, job.Spec)
	}
	if b.Command != "" {
		t.Fatalf("repro command %q for a test-scale spec, want none", b.Command)
	}
	replay := func() *campaign.ExperimentResult {
		cfg, err := b.Spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.ExperimentSeed(b.Index); got != b.Seed {
			t.Fatalf("bundle seed %d, schedule says %d", b.Seed, got)
		}
		p, err := campaign.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.RunExperimentAt(context.Background(), b.Index)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ran := job.experimentRecords(stallIdx, stallIdx+1)[0].Result
	for _, r := range []*campaign.ExperimentResult{replay(), replay()} {
		if r.Outcome != ran.Outcome || r.Detected != ran.Detected ||
			r.Record != ran.Record || r.InputLabel != ran.InputLabel {
			t.Fatalf("repro replay diverged from the job's run:\nreplay: %v %v %s\njob:    %v %v %s",
				r.Outcome, r.Record, r.InputLabel, ran.Outcome, ran.Record, ran.InputLabel)
		}
	}
}

// TestEventsKeepAlive: while the SSE stream is quiet — here, a worker
// wedged at experiment 0, so no progress events flow and a slow
// consumer would otherwise see a silent connection — the handler must
// emit ": keep-alive" comments so intermediaries keep the stream open.
func TestEventsKeepAlive(t *testing.T) {
	s := newTestServer(t, Options{
		keepAlive: 20 * time.Millisecond,
		stallInject: func(index int) {
			if index == 0 {
				time.Sleep(400 * time.Millisecond)
			}
		},
	})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Workers = 1 // everything queues behind the wedged experiment 0
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var stream []byte
	buf := make([]byte, 4096)
	for !bytes.Contains(stream, []byte(": keep-alive")) {
		n, err := resp.Body.Read(buf)
		stream = append(stream, buf[:n]...)
		if err != nil {
			t.Fatalf("stream ended without a keep-alive (%v): %q", err, stream)
		}
	}
	waitState(t, s, job.ID, StateDone)
}
