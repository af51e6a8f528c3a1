package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDeriveTraceID(t *testing.T) {
	a := DeriveTraceID("copy/avx/pure-data seed=1")
	b := DeriveTraceID("copy/avx/pure-data seed=1")
	c := DeriveTraceID("copy/avx/pure-data seed=2")
	if a != b {
		t.Fatalf("trace ID not deterministic: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("distinct keys collided: %s", a)
	}
	if len(a) != 32 || !isHex(a) {
		t.Fatalf("trace ID %q: want 32 lowercase hex chars", a)
	}
	if a == strings.Repeat("0", 32) {
		t.Fatal("derived all-zero trace ID")
	}
}

func TestDeriveSpanID(t *testing.T) {
	tid := DeriveTraceID("k")
	a := DeriveSpanID(tid, "experiment", 42)
	if a != DeriveSpanID(tid, "experiment", 42) {
		t.Fatal("span ID not deterministic")
	}
	if a == DeriveSpanID(tid, "experiment", 43) {
		t.Fatal("distinct seeds collided")
	}
	if a == DeriveSpanID(tid, "golden", 42) {
		t.Fatal("distinct names collided")
	}
	if len(a) != 16 || !isHex(a) {
		t.Fatalf("span ID %q: want 16 lowercase hex chars", a)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("rt")
	sid := DeriveSpanID(tid, "study", 7)
	hdr := FormatTraceparent(tid, sid)
	gotT, gotS, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if gotT != tid || gotS != sid {
		t.Fatalf("round trip: got (%s,%s) want (%s,%s)", gotT, gotS, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	tid := DeriveTraceID("x")
	sid := DeriveSpanID(tid, "s", 0)
	bad := []string{
		"",
		"00-" + tid + "-" + sid,              // missing flags
		"zz-" + tid + "-" + sid + "-01",      // bad version
		"ff-" + tid + "-" + sid + "-01",      // forbidden version
		"00-" + tid[:31] + "-" + sid + "-01", // short trace ID
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",    // uppercase
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // zero trace
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + tid + "-" + sid + "-0g",                     // bad flags
	}
	for _, s := range bad {
		if _, _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q): want error, got nil", s)
		}
	}
	// Future versions parse.
	if _, _, err := ParseTraceparent("01-" + tid + "-" + sid + "-01"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

// collect builds a small two-worker timeline for the export tests.
func collect(t *testing.T) *Timeline {
	t.Helper()
	epoch := time.Unix(1000, 0)
	tid := DeriveTraceID("test")
	root := DeriveSpanID(tid, "study", 1)
	c := NewCollector(tid, root, "", 2, epoch)
	c.Ctl("compile", DeriveSpanID(tid, "compile", 0), root,
		epoch, 5*time.Millisecond, nil)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := c.Lane(w)
			for i := 0; i < 3; i++ {
				seed := int64(w*3 + i)
				lane.Record("experiment", DeriveSpanID(tid, "experiment", seed),
					root, epoch.Add(time.Duration(seed)*time.Millisecond),
					time.Millisecond, map[string]string{"outcome": "Benign"})
			}
		}(w)
	}
	wg.Wait()
	c.Ctl("study", root, "", epoch, 20*time.Millisecond, nil)
	return c.Finish(20 * time.Millisecond)
}

func TestCollectorFinish(t *testing.T) {
	tl := collect(t)
	if len(tl.Spans) != 8 {
		t.Fatalf("spans = %d, want 8 (root + compile + 6 experiments)", len(tl.Spans))
	}
	if tl.Workers != 2 || len(tl.Lanes) != 3 {
		t.Fatalf("workers=%d lanes=%v", tl.Workers, tl.Lanes)
	}
	// Chronological order with ID tiebreak.
	for i := 1; i < len(tl.Spans); i++ {
		a, b := tl.Spans[i-1], tl.Spans[i]
		if a.StartNS > b.StartNS {
			t.Fatalf("spans out of order at %d: %d > %d", i, a.StartNS, b.StartNS)
		}
	}
	// Every non-root span parents to the root here.
	for _, s := range tl.Spans {
		if s.ID != tl.Root && s.Parent != tl.Root {
			t.Errorf("span %s (%s): parent %q, want root %q", s.ID, s.Name, s.Parent, tl.Root)
		}
	}
}

func TestCanonicalDeterministicAndDeduped(t *testing.T) {
	a := collect(t).Canonical()
	b := collect(t).Canonical()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Canonical() differs across identical collections")
	}
	// Duplicate IDs (cache refills) collapse.
	tl := collect(t)
	tl.Spans = append(tl.Spans, tl.Spans[1])
	if got := len(tl.Canonical()); got != len(a) {
		t.Fatalf("dedup failed: %d canonical spans, want %d", got, len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].ID >= a[i].ID {
			t.Fatalf("canonical spans not sorted by ID at %d", i)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tl := collect(t)
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", len(lines)+1, err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 1+len(tl.Spans) {
		t.Fatalf("lines = %d, want %d", len(lines), 1+len(tl.Spans))
	}
	if lines[0]["kind"] != "timeline" || lines[0]["trace_id"] != tl.TraceID {
		t.Fatalf("bad header: %v", lines[0])
	}
	if v, _ := lines[0]["version"].(float64); v != JSONLVersion {
		t.Fatalf("header version %v, want %d", lines[0]["version"], JSONLVersion)
	}
	if int(lines[0]["spans"].(float64)) != len(tl.Spans) {
		t.Fatalf("header span count %v != %d", lines[0]["spans"], len(tl.Spans))
	}
}

func TestWriteTraceEvents(t *testing.T) {
	tl := collect(t)
	var buf bytes.Buffer
	if err := tl.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace-event JSON does not parse: %v", err)
	}
	var meta, complete int
	tids := map[int]bool{}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			tids[ev.TID] = true
			if ev.Args["id"] == nil {
				t.Errorf("X event %q missing id arg", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != len(tl.Spans) {
		t.Fatalf("X events = %d, want %d", complete, len(tl.Spans))
	}
	if meta != 1+len(tl.Lanes) {
		t.Fatalf("metadata events = %d, want %d", meta, 1+len(tl.Lanes))
	}
	// Both worker lanes plus control appear.
	for lane := 0; lane < 3; lane++ {
		if !tids[lane] {
			t.Errorf("lane %d has no events", lane)
		}
	}
}

func TestMergeRemote(t *testing.T) {
	server := collect(t)
	clientStart := server.Start.Add(-10 * time.Millisecond)
	client := Span{
		Name: "remote-study",
		ID:   DeriveSpanID(server.TraceID, "remote-study", 0),
		Lane: 0, StartNS: 0, DurNS: 40 * int64(time.Millisecond),
	}
	m := MergeRemote(client, clientStart, server)
	if m.Root != client.ID {
		t.Fatalf("merged root = %s, want client span %s", m.Root, client.ID)
	}
	if len(m.Spans) != len(server.Spans)+1 {
		t.Fatalf("merged spans = %d, want %d", len(m.Spans), len(server.Spans)+1)
	}
	if m.Lanes[0] != "client" || m.Lanes[1] != "control" {
		t.Fatalf("merged lanes = %v", m.Lanes)
	}
	// Server spans shifted by the epoch delta (10ms) and one lane.
	for _, s := range m.Spans[1:] {
		if s.Lane < 1 {
			t.Fatalf("server span %s landed on client lane", s.ID)
		}
		if s.StartNS < 10*int64(time.Millisecond) {
			t.Fatalf("server span %s not re-anchored: start %d", s.ID, s.StartNS)
		}
	}
}
