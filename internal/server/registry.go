package server

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/client"
)

// The fleet is the coordinator's worker registry. Liveness reuses the
// experiment watchdog's idiom — a beat counter plus a freshness
// timestamp: every POST /v1/workers (registration and heartbeat are
// the same idempotent call) bumps the worker's beats and LastSeen, and
// a worker whose last beat is older than the TTL stops being
// schedulable until it beats again. A shard failure zeroes LastSeen on
// the spot, so the registration loop doubles as the recovery probe.

// workerEntry is one registered worker plus its scheduling state.
type workerEntry struct {
	api.Worker
	cl   *client.Client
	busy bool
}

type fleet struct {
	mu sync.Mutex
	// mk builds the API client for a newly registered worker URL.
	mk    func(url string) *client.Client
	byURL map[string]*workerEntry
}

func newFleet(mk func(url string) *client.Client) *fleet {
	return &fleet{mk: mk, byURL: map[string]*workerEntry{}}
}

// newWorkerID returns a random 12-hex-digit worker id.
func newWorkerID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "wunidentified"
	}
	return "w" + hex.EncodeToString(b[:])
}

// normalizeWorkerURL applies the client package's base normalization so
// "host:port" and "http://host:port/" key the same registry slot.
func normalizeWorkerURL(u string) string {
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// upsert registers a worker or refreshes its heartbeat, returning the
// resulting fleet view of it.
func (f *fleet) upsert(reg api.WorkerRegistration) api.Worker {
	url := normalizeWorkerURL(reg.URL)
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.byURL[url]
	if w == nil {
		w = &workerEntry{
			Worker: api.Worker{ID: newWorkerID(), URL: url, Registered: time.Now()},
			cl:     f.mk(url),
		}
		f.byURL[url] = w
	}
	if reg.Name != "" {
		w.Name = reg.Name
	}
	w.Beats++
	w.LastSeen = time.Now()
	return f.view(w)
}

// alive reports whether the worker's last beat is within the TTL
// (mu held).
func (f *fleet) alive(w *workerEntry) bool {
	return !w.LastSeen.IsZero() && time.Since(w.LastSeen) < workerTTL
}

// view renders the wire form of a worker (mu held).
func (f *fleet) view(w *workerEntry) api.Worker {
	v := w.Worker
	if f.alive(w) {
		v.State = "alive"
	} else {
		v.State = "lost"
	}
	v.Busy = w.busy
	return v
}

// name returns a worker's display name — the registered name when it
// has one, the URL otherwise. This is the key harvest checkpoints,
// fleet events and the /v1/fleet aggregation all share, so a worker's
// throughput history stays attached to it across re-registrations.
// Locked because upsert rewrites Name on every heartbeat.
func (f *fleet) name(w *workerEntry) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w.Name != "" {
		return w.Name
	}
	return w.URL
}

// list returns the fleet view, sorted by URL for stable output.
func (f *fleet) list() []api.Worker {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]api.Worker, 0, len(f.byURL))
	for _, w := range f.byURL {
		out = append(out, f.view(w))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].URL < out[k].URL })
	return out
}

// acquire leases the least-loaded alive, idle worker for one shard
// (nil when none is available right now — the scheduler falls back or
// waits for a heartbeat).
func (f *fleet) acquire() *workerEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *workerEntry
	for _, w := range f.byURL {
		if w.busy || !f.alive(w) {
			continue
		}
		if best == nil || w.Assigned < best.Assigned ||
			(w.Assigned == best.Assigned && w.URL < best.URL) {
			best = w
		}
	}
	if best != nil {
		best.busy = true
		best.Assigned++
	}
	return best
}

// release returns a leased worker. A failure marks it lost — it stops
// being schedulable until its heartbeat loop revives it — so one dead
// worker can't keep absorbing reassigned shards.
func (f *fleet) release(w *workerEntry, failed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.busy = false
	if failed {
		w.Failures++
		w.LastSeen = time.Time{}
	} else {
		w.Completed++
	}
}
