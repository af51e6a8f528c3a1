// Package client is the typed HTTP client for the vulfid /v1 API —
// the ONLY code in the module that issues raw HTTP against /v1. Both
// `vulfi -remote` and the coordinator's worker dispatch go through it,
// so wire-level concerns live in exactly one place: API-key auth,
// Retry-After backpressure with capped jittered backoff, typed error
// values carrying the HTTP status and the server's message,
// Vulfid-Api-Version drift detection, and SSE stream parsing with
// reconnect.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/atlas"
	"vulfi/internal/obs"
)

// Error is a non-2xx API response: the HTTP status code plus the
// server's {"error": "..."} message, and — for 429 backpressure — the
// parsed Retry-After hint.
type Error struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("vulfid: HTTP %d", e.StatusCode)
	}
	return fmt.Sprintf("vulfid: HTTP %d: %s", e.StatusCode, e.Message)
}

// VersionMismatchError reports a daemon speaking an incompatible major
// version of the /v1 wire schema. Minor drift (1.5 vs 1.6) is
// compatible by construction — the schema only grows — and is surfaced
// once through the notify hook instead.
type VersionMismatchError struct {
	Client, Server string
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("vulfid: API version mismatch: daemon speaks %s, this client %s",
		e.Server, e.Client)
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey sends the key as a Bearer token on every request (and as
// ?key= on SSE streams, where EventSource clients cannot set headers).
func WithAPIKey(key string) Option {
	return func(c *Client) { c.key = key }
}

// WithNotify receives human-facing advisories — backoff waits, stream
// reconnects, minor version drift. Default: silently dropped.
func WithNotify(f func(format string, args ...any)) Option {
	return func(c *Client) { c.notify = f }
}

// maxBackoff caps the wait between 429 retries.
const maxBackoff = 30 * time.Second

// Client talks to one vulfid daemon.
type Client struct {
	base     string
	key      string
	notify   func(format string, args ...any)
	warnOnce sync.Once
}

// New builds a client for the daemon at addr. A bare host:port gets
// http:// prepended, trailing slashes are trimmed — the same
// normalization `vulfi -remote` always applied.
func New(addr string, opts ...Option) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	c := &Client{base: base, notify: func(string, ...any) {}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the normalized base URL.
func (c *Client) Base() string { return c.base }

func major(v string) string {
	maj, _, _ := strings.Cut(v, ".")
	return maj
}

// checkVersion inspects the Vulfid-Api-Version header: major drift is
// a hard error, minor drift a one-time advisory, absence (a non-vulfid
// endpoint, or pre-1.1 daemon) is let through for the status check to
// produce a more useful error.
func (c *Client) checkVersion(resp *http.Response) error {
	v := resp.Header.Get("Vulfid-Api-Version")
	if v == "" {
		return nil
	}
	if major(v) != major(api.APIVersion) {
		return &VersionMismatchError{Client: api.APIVersion, Server: v}
	}
	if v != api.APIVersion {
		c.warnOnce.Do(func() {
			c.notify("daemon speaks API %s, this client %s (compatible)", v, api.APIVersion)
		})
	}
	return nil
}

func apiError(resp *http.Response, raw []byte) *Error {
	msg := strings.TrimSpace(string(raw))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		msg = body.Error
	}
	e := &Error{StatusCode: resp.StatusCode, Message: msg}
	// Retry-After is integer seconds (the only form vulfid emits).
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil && n >= 0 {
			e.RetryAfter = time.Duration(n) * time.Second
		}
	}
	return e
}

func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	return req, nil
}

// Response body caps, so one bad daemon (a worker's harvest page, say)
// cannot exhaust the memory of the process reading it.
// maxResponseBytes bounds a 2xx body. The largest responses the smoke
// scenarios and the benchmark's vulfid-service workload produce are
// experiment harvests: 0.8 MB for 250 traced records, 2.3 MB for 4,000
// untraced ones. The cap leaves room for about 20,000 traced records in
// one harvest. maxErrorBytes bounds a non-2xx body, one
// {"error": "..."} message.
const (
	maxResponseBytes = 64 << 20
	maxErrorBytes    = 64 << 10
)

// readBody reads resp's body, failing with an error that names the
// request when the body is longer than limit bytes.
func readBody(resp *http.Response, method, path string, limit int64) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("vulfid: %s %s: reading response: %w", method, path, err)
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("vulfid: %s %s: response body exceeds %d bytes", method, path, limit)
	}
	return raw, nil
}

// do issues one request and decodes the JSON response into out (when
// non-nil). Non-2xx responses become *Error; incompatible daemons
// become *VersionMismatchError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.checkVersion(resp); err != nil {
		return err
	}
	limit := int64(maxResponseBytes)
	if resp.StatusCode/100 != 2 {
		limit = maxErrorBytes
	}
	raw, err := readBody(resp, method, path, limit)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("vulfid: %s %s: bad response: %w", method, path, err)
		}
	}
	return nil
}

// Submit posts a spec (POST /v1/jobs) and returns the accepted job's
// status. 429 backpressure — a full queue or an exhausted tenant
// quota — is retried automatically: the server's Retry-After is
// honored when present, otherwise an exponential backoff applies, both
// capped at maxBackoff and jittered ±20% so a fleet of clients
// doesn't stampede the daemon in lockstep.
func (c *Client) Submit(ctx context.Context, spec api.Spec) (*api.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	backoff := time.Second
	for {
		var st api.Status
		err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &st)
		if err == nil {
			return &st, nil
		}
		var ae *Error
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
			return nil, err
		}
		delay := ae.RetryAfter
		if delay <= 0 {
			delay = backoff
			backoff *= 2
		}
		if delay > maxBackoff {
			delay = maxBackoff
		}
		// ±20% jitter, never below 80% of the hinted delay — the server's
		// hint is a floor estimate of when capacity frees up.
		delay += time.Duration(rand.Int63n(int64(delay/5) + 1))
		c.notify("queue full, retrying in %s", delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Status fetches one job (GET /v1/jobs/{id}).
func (c *Client) Status(ctx context.Context, id string) (*api.Status, error) {
	var st api.Status
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job the daemon knows, without results
// (GET /v1/jobs).
func (c *Client) Jobs(ctx context.Context) ([]api.Status, error) {
	var body struct {
		Jobs []api.Status `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// Cancel asks the daemon to stop a job (DELETE /v1/jobs/{id});
// cancellation is cooperative, between experiments.
func (c *Client) Cancel(ctx context.Context, id string) (*api.Status, error) {
	var st api.Status
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Explain fetches a job's propagation profile, or — with index >= 0 —
// deterministically re-runs that single experiment of the job's seed
// schedule with tracing and returns the full explanation
// (GET /v1/jobs/{id}/explain[?index=N]).
func (c *Client) Explain(ctx context.Context, id string, index int) (json.RawMessage, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/explain"
	if index >= 0 {
		path += "?index=" + strconv.Itoa(index)
	}
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, path, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Profile fetches a finished job's execution profile
// (GET /v1/jobs/{id}/profile).
func (c *Client) Profile(ctx context.Context, id string) (json.RawMessage, error) {
	var body struct {
		HotProfile json.RawMessage `json:"hot_profile"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/profile", nil, &body); err != nil {
		return nil, err
	}
	return body.HotProfile, nil
}

// Timeline fetches a finished job's span timeline
// (GET /v1/jobs/{id}/timeline). Returns nil when the job has no
// timeline (yet).
func (c *Client) Timeline(ctx context.Context, id string) (*obs.Timeline, error) {
	var body struct {
		Timeline *obs.Timeline `json:"timeline"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/timeline", nil, &body); err != nil {
		return nil, err
	}
	return body.Timeline, nil
}

// History fetches the daemon's study-history store (GET /v1/history).
// limit > 0 returns only the newest entries; sites keeps the per-site
// tallies (stripped by default to keep the payload light).
func (c *Client) History(ctx context.Context, limit int, sites bool) ([]atlas.Entry, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if sites {
		q.Set("sites", "1")
	}
	path := "/v1/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var body struct {
		Entries []atlas.Entry `json:"entries"`
	}
	if err := c.do(ctx, http.MethodGet, path, nil, &body); err != nil {
		return nil, err
	}
	return body.Entries, nil
}

// Experiments fetches a job's checkpointed (index, seed, result)
// triples, optionally restricted to the half-open index range
// [from, to) (to == 0 means no upper bound) — the coordinator's shard
// harvest (GET /v1/jobs/{id}/experiments).
func (c *Client) Experiments(ctx context.Context, id string, from, to int) ([]api.ExperimentRecord, error) {
	q := url.Values{}
	if from > 0 {
		q.Set("from", strconv.Itoa(from))
	}
	if to > 0 {
		q.Set("to", strconv.Itoa(to))
	}
	path := "/v1/jobs/" + url.PathEscape(id) + "/experiments"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var body api.ExperimentsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &body); err != nil {
		return nil, err
	}
	return body.Experiments, nil
}

// RegisterWorker announces a worker to a coordinator (POST
// /v1/workers). Re-posting the same URL refreshes the heartbeat, so a
// worker's registration loop is one idempotent call on a ticker.
func (c *Client) RegisterWorker(ctx context.Context, reg api.WorkerRegistration) (*api.Worker, error) {
	body, err := json.Marshal(reg)
	if err != nil {
		return nil, err
	}
	var w api.Worker
	if err := c.do(ctx, http.MethodPost, "/v1/workers", body, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// Workers fetches the coordinator's fleet view (GET /v1/workers).
func (c *Client) Workers(ctx context.Context) (*api.WorkersResponse, error) {
	var body api.WorkersResponse
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &body); err != nil {
		return nil, err
	}
	return &body, nil
}

// Fleet fetches the coordinator's fleet metrics view (GET /v1/fleet):
// per-worker harvest throughput and lag, plus the reassignment,
// worker-loss and stall counters.
func (c *Client) Fleet(ctx context.Context) (*api.FleetResponse, error) {
	var body api.FleetResponse
	if err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &body); err != nil {
		return nil, err
	}
	return &body, nil
}

// errTailDone is the sentinel an Events callback returns to end the
// stream cleanly.
var errTailDone = errors.New("client: tail done")

// Events follows the job's SSE stream (GET /v1/jobs/{id}/events),
// invoking fn for every event until the stream ends (nil), fn returns
// an error (returned verbatim, except errTailDone → nil), or the
// transport fails. Keep-alive comments are skipped.
func (c *Client) Events(ctx context.Context, id string, fn func(event string, data json.RawMessage) error) error {
	path := "/v1/jobs/" + url.PathEscape(id) + "/events"
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.checkVersion(resp); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		raw, err := readBody(resp, http.MethodGet, path, maxErrorBytes)
		if err != nil {
			return err
		}
		return apiError(resp, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var eventType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if err := fn(eventType, json.RawMessage(data)); err != nil {
				if errors.Is(err, errTailDone) {
					return nil
				}
				return err
			}
		}
	}
	return sc.Err()
}

// Tail follows a job to its terminal state: it consumes the SSE stream,
// invokes onEvent (may be nil) for every event, and reconnects on
// dropped connections — a daemon restart mid-job is invisible apart
// from the reconnect, since the journal resumes the job. It returns
// the terminal status. Hard API errors (404, 401, version mismatch)
// are returned instead of retried.
func (c *Client) Tail(ctx context.Context, id string, onEvent func(event string, data json.RawMessage)) (*api.Status, error) {
	for {
		var final *api.Status
		err := c.Events(ctx, id, func(event string, data json.RawMessage) error {
			if onEvent != nil {
				onEvent(event, data)
			}
			if event != "state" {
				return nil
			}
			var st api.Status
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("bad state event: %w", err)
			}
			if api.TerminalState(st.State) {
				final = &st
				return errTailDone
			}
			return nil
		})
		if final != nil {
			return final, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var ae *Error
		var vm *VersionMismatchError
		if errors.As(err, &ae) || errors.As(err, &vm) {
			return nil, err
		}
		// Transport drop, or the stream ended without a terminal state (a
		// draining daemon closes its subscribers): reconnect.
		if err == nil {
			err = errors.New("event stream ended without a terminal state")
		}
		c.notify("event stream dropped (%v), reconnecting", err)
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
