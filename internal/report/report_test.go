package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/obs"
)

func tinyOptions() Options {
	o := Defaults()
	o.Experiments = 5
	o.Campaigns = 2
	o.MicroExperiments = 10
	o.Scale = benchmarks.ScaleTest
	o.Benchmarks = []string{"Blackscholes"}
	o.ISAs = []*isa.ISA{isa.AVX}
	return o
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"TABLE I", "Blackscholes", "AVX"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table1 output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "SSE") {
		t.Error("ISA filter ignored")
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"FIGURE 10", "pure-data", "control", "address",
		"Averages across benchmarks"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig10 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig11(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig11(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"FIGURE 11", "SDC", "Benign", "Crash", "±MoE"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig11 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig12(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig12(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"FIGURE 12", "VectorCopy", "DotProduct",
		"VectorSum", "SDC Detection Rate"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig12 output missing %q:\n%s", frag, out)
		}
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablations(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"per-lane", "whole-register", "mask-aware",
		"mask-oblivious", "exit-only", "every-iteration"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Ablations output missing %q:\n%s", frag, out)
		}
	}
}

// TestEventsAppendStudyTimelines: with Events set, every study cell is
// traced and its timeline lands in the stream as obs JSONL — one
// versioned header per study, followed by exactly the span lines the
// header announces. Ablations runs two study cells (per-lane and
// whole-register sites); its other parts prepare cells directly and
// write nothing.
func TestEventsAppendStudyTimelines(t *testing.T) {
	var events bytes.Buffer
	o := tinyOptions()
	o.Events = &events
	if err := Ablations(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&events)
	headers := 0
	for sc.Scan() {
		var h struct {
			Kind    string `json:"kind"`
			Version int    `json:"version"`
			Spans   int    `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			t.Fatalf("header line %q: %v", sc.Text(), err)
		}
		if h.Kind != "timeline" || h.Version != 2 || h.Spans == 0 {
			t.Fatalf("study %d header %q, want a version-2 timeline header with spans", headers+1, sc.Text())
		}
		headers++
		for i := 0; i < h.Spans; i++ {
			if !sc.Scan() {
				t.Fatalf("study %d: stream ends after %d of %d spans", headers, i, h.Spans)
			}
			var s obs.Span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID == "" {
				t.Fatalf("study %d span line %q: %v", headers, sc.Text(), err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if headers != 2 {
		t.Fatalf("events hold %d study timelines, want 2", headers)
	}
}
