// Package obs is the campaign observatory's span layer: hierarchical
// wall-time spans (study → experiment → golden/faulty/compare, plus
// compile and cache-fill) recorded into per-worker lanes and merged into
// a Timeline that exports as JSONL or Chrome trace-event JSON (Perfetto).
//
// Span identities are deterministic: IDs derive from the study's
// deterministic seed schedule (FNV-1a over trace ID, span name and
// seed), never from timestamps or scheduling. Two runs of the same
// configuration therefore produce the same span *tree* — same IDs,
// parents, names and attributes — while lane assignment and timestamps
// remain scheduling-dependent. Canonical() projects a timeline onto that
// invariant subset for determinism tests.
//
// The recording discipline mirrors internal/profile's probe/collector
// pattern: each worker owns an unsynchronized Lane (created once, before
// the workers start), the control lane is mutex-guarded, and the merge
// happens once at study end. Stdlib-only by design.
package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of a campaign. StartNS is relative to the
// owning Timeline's Start so exported timelines are self-contained.
type Span struct {
	Name string `json:"name"`
	// ID is the span's deterministic 16-hex identity (DeriveSpanID).
	ID string `json:"id"`
	// Parent is the parent span's ID ("" for the root).
	Parent string `json:"parent,omitempty"`
	// Lane is the display lane: 0 is the control lane (compile, root),
	// 1..Workers are worker lanes, and merged remote timelines prepend a
	// client lane (see MergeRemote).
	Lane    int               `json:"lane"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Timeline is a merged span stream for one study (or one merged
// client+server remote study).
type Timeline struct {
	// TraceID is the W3C-style 32-hex trace identity shared by every
	// span; propagated across the vulfi ↔ vulfid boundary via
	// traceparent so remote spans join the client's trace.
	TraceID string `json:"trace_id"`
	// Root is the span ID of this timeline's root span.
	Root string `json:"root"`
	// Parent is the remote parent span ID carried in via traceparent
	// ("" when the study is its own root).
	Parent string `json:"parent,omitempty"`
	// Start anchors StartNS offsets to wall-clock time.
	Start time.Time `json:"start"`
	// WallNS is the root span's duration.
	WallNS int64 `json:"wall_ns"`
	// Workers is the number of worker lanes.
	Workers int `json:"workers"`
	// Lanes names each display lane; index = Span.Lane.
	Lanes []string `json:"lanes,omitempty"`
	Spans []Span   `json:"spans"`
}

// CanonicalSpan is a span projected onto its deterministic subset: no
// lane, no timestamps. Attrs must themselves be deterministic (the
// campaign layer only records schedule-derived attributes).
type CanonicalSpan struct {
	Name   string            `json:"name"`
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Canonical returns the deterministic span tree: spans deduplicated by
// ID (golden cache-fill spans can legitimately repeat when a seed the
// full cache did not keep is refilled — same derived ID, same work) and
// sorted by ID. Two
// runs of one configuration yield equal Canonical() regardless of
// worker count or scheduling.
func (t *Timeline) Canonical() []CanonicalSpan {
	seen := make(map[string]bool, len(t.Spans))
	out := make([]CanonicalSpan, 0, len(t.Spans))
	for _, s := range t.Spans {
		if seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		out = append(out, CanonicalSpan{
			Name: s.Name, ID: s.ID, Parent: s.Parent, Attrs: s.Attrs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lane is one worker's unsynchronized span buffer. A lane is owned by
// exactly one goroutine between Collector creation and Finish; Record
// is deliberately lock-free (the profile.Probe discipline).
type Lane struct {
	id    int
	epoch time.Time
	spans []Span
}

// Record appends one completed span to the lane.
func (l *Lane) Record(name, id, parent string, start time.Time, dur time.Duration, attrs map[string]string) {
	l.spans = append(l.spans, Span{
		Name: name, ID: id, Parent: parent, Lane: l.id,
		StartNS: start.Sub(l.epoch).Nanoseconds(),
		DurNS:   dur.Nanoseconds(),
		Attrs:   attrs,
	})
}

// Collector owns a study's lanes and merges them into a Timeline.
// Worker lanes are handed out up front (Lane method) and recorded into
// without synchronization; the control lane (compile, root, anything
// recorded outside the worker pool) is mutex-guarded.
type Collector struct {
	traceID string
	root    string
	parent  string
	epoch   time.Time

	mu    sync.Mutex
	ctl   Lane
	lanes []*Lane
}

// NewCollector builds a collector for the given trace identity.
// traceID/rootID address the study's root span; parentID is the remote
// parent from traceparent ("" for a local root). epoch anchors all
// span offsets (normally the moment Prepare starts, so the compile
// span sits at offset ~0).
func NewCollector(traceID, rootID, parentID string, workers int, epoch time.Time) *Collector {
	c := &Collector{
		traceID: traceID, root: rootID, parent: parentID, epoch: epoch,
		ctl: Lane{id: 0, epoch: epoch},
	}
	c.lanes = make([]*Lane, workers)
	for i := range c.lanes {
		c.lanes[i] = &Lane{id: i + 1, epoch: epoch}
	}
	return c
}

// TraceID returns the collector's trace identity.
func (c *Collector) TraceID() string { return c.traceID }

// Root returns the root span's ID.
func (c *Collector) Root() string { return c.root }

// Parent returns the remote parent span ID ("" for a local root).
func (c *Collector) Parent() string { return c.parent }

// NumLanes returns the number of worker lanes.
func (c *Collector) NumLanes() int { return len(c.lanes) }

// Lane returns worker w's lane (0-based). The lane must only be used
// from that worker's goroutine.
func (c *Collector) Lane(w int) *Lane { return c.lanes[w] }

// Ctl records one span on the control lane; safe for concurrent use.
func (c *Collector) Ctl(name, id, parent string, start time.Time, dur time.Duration, attrs map[string]string) {
	c.mu.Lock()
	c.ctl.Record(name, id, parent, start, dur, attrs)
	c.mu.Unlock()
}

// Finish merges every lane into a Timeline. wall is the root span's
// duration. Spans are ordered by start offset (ties by ID) so exports
// read chronologically.
func (c *Collector) Finish(wall time.Duration) *Timeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Timeline{
		TraceID: c.traceID, Root: c.root, Parent: c.parent,
		Start: c.epoch, WallNS: wall.Nanoseconds(),
		Workers: len(c.lanes),
		Lanes:   make([]string, 0, len(c.lanes)+1),
	}
	t.Lanes = append(t.Lanes, "control")
	for i := range c.lanes {
		t.Lanes = append(t.Lanes, fmt.Sprintf("worker %d", i))
	}
	n := len(c.ctl.spans)
	for _, l := range c.lanes {
		n += len(l.spans)
	}
	t.Spans = make([]Span, 0, n)
	t.Spans = append(t.Spans, c.ctl.spans...)
	for _, l := range c.lanes {
		t.Spans = append(t.Spans, l.spans...)
	}
	sort.SliceStable(t.Spans, func(i, j int) bool {
		if t.Spans[i].StartNS != t.Spans[j].StartNS {
			return t.Spans[i].StartNS < t.Spans[j].StartNS
		}
		return t.Spans[i].ID < t.Spans[j].ID
	})
	return t
}

// MergeRemote nests a server-produced timeline under a client-side root
// span: the client span becomes lane 0 ("client"), server lanes shift
// up by one, and server offsets re-anchor to the client's epoch (the
// two clocks are compared directly — exact on one machine, approximate
// across machines, and irrelevant to the deterministic span tree).
func MergeRemote(client Span, clientStart time.Time, server *Timeline) *Timeline {
	off := server.Start.Sub(clientStart).Nanoseconds()
	t := &Timeline{
		TraceID: server.TraceID, Root: client.ID,
		Start: clientStart, WallNS: client.DurNS,
		Workers: server.Workers,
		Lanes:   append([]string{"client"}, server.Lanes...),
	}
	client.Lane = 0
	t.Spans = make([]Span, 0, len(server.Spans)+1)
	t.Spans = append(t.Spans, client)
	for _, s := range server.Spans {
		s.Lane++
		s.StartNS += off
		t.Spans = append(t.Spans, s)
	}
	return t
}

// fnv64 hashes s with FNV-1a.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// nonZero keeps derived IDs out of the W3C all-zero invalid range.
func nonZero(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// DeriveTraceID returns a deterministic 32-hex trace ID for a study
// key (e.g. "benchmark/isa/category seed=N"). Deterministic so that
// re-running a configuration rebuilds the same trace identity.
func DeriveTraceID(key string) string {
	hi := nonZero(fnv64("vulfi-trace:" + key))
	lo := nonZero(fnv64(key + ":vulfi-trace"))
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// DeriveSpanID returns a deterministic 16-hex span ID scoped to a
// trace: FNV-1a over the trace ID, the span name and a schedule-derived
// discriminator (experiment seed, input seed, or 0 for singletons).
func DeriveSpanID(traceID, name string, n int64) string {
	return fmt.Sprintf("%016x",
		nonZero(fnv64(traceID+"|"+name+"|"+fmt.Sprintf("%d", n))))
}

// FormatTraceparent renders a W3C trace-context traceparent header
// (version 00, sampled flag set).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent validates and splits a traceparent header into its
// trace ID and parent span ID. Accepts any version byte (per spec,
// future versions parse as 00) but rejects malformed fields and the
// all-zero invalid identities.
func ParseTraceparent(s string) (traceID, spanID string, err error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return "", "", fmt.Errorf("traceparent %q: want version-traceid-spanid-flags", s)
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" {
		return "", "", fmt.Errorf("traceparent %q: bad version %q", s, ver)
	}
	if len(tid) != 32 || !isHex(tid) {
		return "", "", fmt.Errorf("traceparent %q: trace ID must be 32 lowercase hex chars", s)
	}
	if tid == strings.Repeat("0", 32) {
		return "", "", fmt.Errorf("traceparent %q: all-zero trace ID is invalid", s)
	}
	if len(sid) != 16 || !isHex(sid) {
		return "", "", fmt.Errorf("traceparent %q: parent span ID must be 16 lowercase hex chars", s)
	}
	if sid == strings.Repeat("0", 16) {
		return "", "", fmt.Errorf("traceparent %q: all-zero span ID is invalid", s)
	}
	if len(flags) != 2 || !isHex(flags) {
		return "", "", fmt.Errorf("traceparent %q: bad flags %q", s, flags)
	}
	return tid, sid, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
