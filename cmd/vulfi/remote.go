package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"vulfi/internal/client"
	"vulfi/internal/obs"
	"vulfi/internal/profile"
	"vulfi/internal/server"
)

// remoteAPIKey is the -api-key flag value, presented to the daemon on
// every request (the runRemote signature itself is part of the test
// surface and stays key-free).
var remoteAPIKey string

// runRemote submits the spec to a vulfid daemon through the typed
// client package, tails the job's SSE event stream until it reaches a
// terminal state, and prints the final result. When ctx is cancelled
// (Ctrl-C) the job is cancelled on the daemon before returning. Queue
// backpressure (429 + Retry-After) is retried inside client.Submit.
//
// With timelineOut set the client opens its own root span, propagates
// it to the daemon as a W3C traceparent, and — once the job finishes —
// merges the daemon's timeline under that root span into one
// Perfetto-loadable trace: the client lane shows the whole
// submit-to-result window, the server lanes the per-worker experiment
// spans inside it. On a sharded job the daemon's timeline is already
// the coordinator's fleet merge, so the same fetch yields one lane
// group per worker.
//
// With profileOut set the finished job's execution profile (the fleet
// merge, for sharded jobs) is fetched and written as folded stacks plus
// an HTML flame graph, exactly like a local -profile run.
func runRemote(ctx context.Context, addr string, spec server.Spec,
	jsonOut, progress bool, timelineOut, profileOut string) error {

	notify := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	cl := client.New(addr,
		client.WithAPIKey(remoteAPIKey), client.WithNotify(notify))

	var clientSpan string
	clientStart := time.Now()
	if timelineOut != "" {
		// Deterministic client identity: same spec, same trace — matching
		// the campaign layer's schedule-derived span IDs.
		tid := obs.DeriveTraceID(fmt.Sprintf("vulfi-remote %s/%s/%s seed=%d",
			spec.Benchmark, spec.ISA, spec.Category, spec.Seed))
		clientSpan = obs.DeriveSpanID(tid, "vulfi-remote", spec.Seed)
		spec.TraceParent = obs.FormatTraceparent(tid, clientSpan)
	}

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "submitted job %s (%d experiments) to %s\n",
		st.ID, st.Total, cl.Base())

	// Cancel the remote job if our context dies while tailing.
	defer func() {
		if ctx.Err() == nil {
			return
		}
		cctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if _, err := cl.Cancel(cctx, st.ID); err == nil {
			fmt.Fprintf(os.Stderr, "cancelled job %s\n", st.ID)
		}
	}()

	final, err := cl.Tail(ctx, st.ID, func(event string, data json.RawMessage) {
		if !progress || event != "experiment" {
			return
		}
		var ev struct {
			Done    int    `json:"done"`
			Total   int    `json:"total"`
			Outcome string `json:"outcome"`
		}
		if json.Unmarshal(data, &ev) == nil {
			fmt.Fprintf(os.Stderr, "\r%d/%d experiments (last: %s)   ",
				ev.Done, ev.Total, ev.Outcome)
		}
	})
	if err != nil {
		return err
	}
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	if timelineOut != "" && final.State == server.StateDone {
		if err := fetchMergedTimeline(ctx, cl, st.ID, clientSpan,
			clientStart, timelineOut); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "merged trace written to %s (load in Perfetto), spans to %s.jsonl\n",
				timelineOut, timelineOut)
		}
	}
	if profileOut != "" && final.State == server.StateDone {
		if err := fetchProfile(ctx, cl, st.ID, spec, profileOut); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "folded stacks written to %s, flame graph to %s.html\n",
				profileOut, profileOut)
		}
	}
	return printRemoteResult(os.Stdout, final, jsonOut)
}

// fetchProfile pulls the finished job's execution profile from the
// daemon and writes the same artifacts a local -profile run produces.
func fetchProfile(ctx context.Context, cl *client.Client, id string,
	spec server.Spec, path string) error {

	raw, err := cl.Profile(ctx, id)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("job %s has no execution profile in its result", id)
	}
	var p profile.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return err
	}
	title := fmt.Sprintf("%s/%s/%s seed=%d",
		spec.Benchmark, spec.ISA, spec.Category, spec.Seed)
	return writeProfileArtifacts(path, title, &p)
}

// fetchMergedTimeline pulls the finished job's timeline from the daemon
// and nests it under the client's root span — the submit-to-result
// window measured on this side of the HTTP boundary.
func fetchMergedTimeline(ctx context.Context, cl *client.Client, id, clientSpan string,
	clientStart time.Time, path string) error {

	tl, err := cl.Timeline(ctx, id)
	if err != nil {
		return err
	}
	if tl == nil {
		return fmt.Errorf("job %s has no timeline in its result", id)
	}
	root := obs.Span{
		Name: "vulfi-remote", ID: clientSpan,
		DurNS: time.Since(clientStart).Nanoseconds(),
		Attrs: map[string]string{"job": id, "daemon": cl.Base()},
	}
	return writeTimelineFiles(path, obs.MergeRemote(root, clientStart, tl))
}

// remoteStudy mirrors the studyJSON fields the text summary needs.
type remoteStudy struct {
	StaticSites int     `json:"static_sites"`
	LaneSites   int     `json:"lane_sites"`
	MeanDyn     float64 `json:"mean_golden_dyn_instrs"`
	SDC         int     `json:"sdc"`
	Benign      int     `json:"benign"`
	Crash       int     `json:"crash"`
	Hang        int     `json:"hang"`
	Detected    int     `json:"detected"`
	SDCDetected int     `json:"sdc_detected"`
	MeanSDC     float64 `json:"mean_sdc_rate"`
	MoE         float64 `json:"margin_of_error_95"`
	NearNormal  bool    `json:"near_normal"`
	Experiments int     `json:"experiments_per_campaign"`
	Campaigns   int     `json:"campaigns"`
}

// printRemoteResult writes a finished job's study to w: the study JSON
// with jsonOut, otherwise the text summary WriteStudy prints for a
// local run.
func printRemoteResult(w io.Writer, st *server.Status, jsonOut bool) error {
	switch st.State {
	case server.StateCancelled:
		return fmt.Errorf("job %s was cancelled after %d/%d experiments",
			st.ID, st.Done, st.Total)
	case server.StateFailed:
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if jsonOut {
		var indented bytes.Buffer
		if err := json.Indent(&indented, st.Result, "", "  "); err != nil {
			return err
		}
		fmt.Fprintln(w, indented.String())
		return nil
	}
	var sr remoteStudy
	if err := json.Unmarshal(st.Result, &sr); err != nil {
		return fmt.Errorf("job %s: bad result payload: %w", st.ID, err)
	}
	if sr.MoE < 0 {
		// The JSON's sentinel for a non-finite margin (one campaign).
		sr.MoE = math.Inf(1)
	}
	total := float64(sr.SDC + sr.Benign + sr.Crash)
	pct := func(n int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / total
	}
	fmt.Fprintf(w, "job %s: done (%d campaigns x %d experiments)\n",
		st.ID, sr.Campaigns, sr.Experiments)
	fmt.Fprintf(w, "static sites: %d (%d lane sites)\n", sr.StaticSites, sr.LaneSites)
	fmt.Fprintf(w, "mean golden dynamic instructions: %.0f\n", sr.MeanDyn)
	fmt.Fprintf(w, "SDC    %6.2f%%  (±%.2f%% at 95%%, near-normal=%v)\n",
		100*sr.MeanSDC, 100*sr.MoE, sr.NearNormal)
	fmt.Fprintf(w, "Benign %6.2f%%\n", pct(sr.Benign))
	fmt.Fprintf(w, "Crash  %6.2f%%  (%d hangs)\n", pct(sr.Crash), sr.Hang)
	if sr.Detected > 0 && sr.SDC > 0 {
		fmt.Fprintf(w, "detector fired in %d experiments; SDC detection rate %.2f%%\n",
			sr.Detected, 100*float64(sr.SDCDetected)/float64(sr.SDC))
	}
	return nil
}
