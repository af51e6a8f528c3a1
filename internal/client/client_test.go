package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vulfi/internal/api"
)

// stamped wraps a handler with the version header a real vulfid always
// sends, so the client's drift check sees a current daemon.
func stamped(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Vulfid-Api-Version", api.APIVersion)
		h(w, r)
	})
}

func TestBaseNormalization(t *testing.T) {
	for addr, want := range map[string]string{
		"localhost:8666":          "http://localhost:8666",
		"http://localhost:8666/":  "http://localhost:8666",
		"https://vulfid.internal": "https://vulfid.internal",
	} {
		if got := New(addr).Base(); got != want {
			t.Errorf("New(%q).Base() = %q, want %q", addr, got, want)
		}
	}
}

// TestSubmitHonorsRetryAfter: a 429 with Retry-After: 1 must hold the
// resubmission for at least ~the hinted second (80% floor under
// jitter), then succeed.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full, retry later"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.Status{ID: "j1", State: api.StateQueued})
	}))
	defer ts.Close()

	notified := false
	cl := New(ts.URL, WithNotify(func(string, ...any) { notified = true }))
	start := time.Now()
	st, err := cl.Submit(context.Background(), api.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" {
		t.Fatalf("submitted job %q, want j1", st.ID)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d submissions, want 2", got)
	}
	if waited := time.Since(start); waited < 800*time.Millisecond {
		t.Fatalf("resubmitted after %s, want >= ~1s per Retry-After", waited)
	}
	if !notified {
		t.Error("backoff wait was not surfaced through notify")
	}
}

// TestSubmitBackoffCancellable: a client stuck in backoff must honor
// context cancellation instead of sleeping out the delay.
func TestSubmitBackoffCancellable(t *testing.T) {
	ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(ts.URL).Submit(ctx, api.Spec{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestTypedError: non-2xx responses surface as *Error carrying the
// HTTP status and the server's {"error"} message verbatim.
func TestTypedError(t *testing.T) {
	ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such job \"j404\""}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Status(context.Background(), "j404")
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T (%v), want *Error", err, err)
	}
	if ae.StatusCode != http.StatusNotFound || !strings.Contains(ae.Message, "j404") {
		t.Fatalf("error = %+v, want 404 naming the job", ae)
	}
	if !strings.Contains(ae.Error(), "404") {
		t.Errorf("Error() = %q, want the status code in the text", ae.Error())
	}
}

// TestVersionMismatch: a daemon announcing a different major version is
// a hard *VersionMismatchError naming both sides; minor drift is let
// through with a one-time notify.
func TestVersionMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Vulfid-Api-Version", "2.0")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Status(context.Background(), "j1")
	var vme *VersionMismatchError
	if !errors.As(err, &vme) {
		t.Fatalf("err = %T (%v), want *VersionMismatchError", err, err)
	}
	if vme.Server != "2.0" || vme.Client != api.APIVersion {
		t.Fatalf("mismatch = %+v, want server 2.0 / client %s", vme, api.APIVersion)
	}

	// Minor drift: compatible, but surfaced once.
	minor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Vulfid-Api-Version", major(api.APIVersion)+".0")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"id":"j1"}`)
	}))
	defer minor.Close()
	warned := 0
	cl := New(minor.URL, WithNotify(func(string, ...any) { warned++ }))
	for i := 0; i < 3; i++ {
		if _, err := cl.Status(context.Background(), "j1"); err != nil {
			t.Fatal(err)
		}
	}
	if warned != 1 {
		t.Fatalf("minor drift warned %d times, want exactly once", warned)
	}
}

// TestAPIKeySent: the configured key rides every request as a Bearer
// token.
func TestAPIKeySent(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		fmt.Fprint(w, `{"id":"j1"}`)
	}))
	defer ts.Close()

	cl := New(ts.URL, WithAPIKey("sesame"))
	if _, err := cl.Status(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "Bearer sesame" {
		t.Fatalf("Authorization = %q, want Bearer sesame", got.Load())
	}
}

// TestTailTerminal: Tail follows the SSE stream and returns the final
// status once a terminal state event arrives, relaying experiment
// events on the way.
func TestTailTerminal(t *testing.T) {
	ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: experiment\ndata: {\"i\":0,\"done\":1,\"total\":2}\n\n")
		fmt.Fprint(w, "event: state\ndata: {\"id\":\"j1\",\"state\":\"done\",\"done\":2,\"total\":2}\n\n")
	}))
	defer ts.Close()

	var experiments int
	st, err := New(ts.URL).Tail(context.Background(), "j1",
		func(event string, data json.RawMessage) {
			if event == "experiment" {
				experiments++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Done != 2 {
		t.Fatalf("final status = %+v, want done 2/2", st)
	}
	if experiments != 1 {
		t.Fatalf("saw %d experiment events, want 1", experiments)
	}
}

// writePadded writes doc followed by spaces, n bytes in all: still one
// JSON document, since a decoder skips trailing whitespace.
func writePadded(w http.ResponseWriter, doc string, n int) {
	fmt.Fprint(w, doc)
	pad := []byte(strings.Repeat(" ", 64<<10))
	for left := n - len(doc); left > 0; left -= len(pad) {
		w.Write(pad[:min(left, len(pad))])
	}
}

// TestResponseBodyLimit: a 2xx body of exactly maxResponseBytes
// decodes, and one byte more fails with an error naming the request.
func TestResponseBodyLimit(t *testing.T) {
	for _, n := range []int{maxResponseBytes, maxResponseBytes + 1} {
		ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
			writePadded(w, `{"id":"j1"}`, n)
		}))
		st, err := New(ts.URL).Status(context.Background(), "j1")
		ts.Close()
		if n == maxResponseBytes {
			if err != nil || st.ID != "j1" {
				t.Fatalf("body of exactly the limit: status %+v, err %v", st, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "GET /v1/jobs/j1") {
			t.Fatalf("body over the limit: err = %v, want one naming GET /v1/jobs/j1", err)
		}
	}
}

// TestErrorBodyLimit: a non-2xx body of exactly maxErrorBytes still
// becomes an *Error with the server's message, on a plain request and
// on the events stream; one byte more fails naming the request.
func TestErrorBodyLimit(t *testing.T) {
	for _, n := range []int{maxErrorBytes, maxErrorBytes + 1} {
		ts := httptest.NewServer(stamped(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			writePadded(w, `{"error":"boom"}`, n)
		}))
		cl := New(ts.URL)
		_, statusErr := cl.Status(context.Background(), "j1")
		eventsErr := cl.Events(context.Background(), "j1",
			func(string, json.RawMessage) error { return nil })
		ts.Close()
		for _, c := range []struct {
			err  error
			path string
		}{{statusErr, "GET /v1/jobs/j1"}, {eventsErr, "GET /v1/jobs/j1/events"}} {
			var ae *Error
			if n == maxErrorBytes {
				if !errors.As(c.err, &ae) || ae.Message != "boom" {
					t.Fatalf("%s: error body of exactly the limit: err = %v, want *Error boom", c.path, c.err)
				}
				continue
			}
			if errors.As(c.err, &ae) || c.err == nil || !strings.Contains(c.err.Error(), c.path+":") {
				t.Fatalf("%s: error body over the limit: err = %v, want one naming the request", c.path, c.err)
			}
		}
	}
}
