package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// JSONLVersion versions the JSONL span contract. Version 1 was the
// `type`/`fields` event lines of API 1.7 and earlier; version 2 is this
// header-plus-spans stream, written both by -timeline's FILE.jsonl and,
// one timeline per study, by -events.
const JSONLVersion = 2

// jsonlHeader is the first line of a JSONL export: the timeline's
// identity and shape, without the span array.
type jsonlHeader struct {
	Kind    string   `json:"kind"`
	Version int      `json:"version"`
	TraceID string   `json:"trace_id"`
	Root    string   `json:"root"`
	Parent  string   `json:"parent,omitempty"`
	StartNS int64    `json:"start_unix_ns"`
	WallNS  int64    `json:"wall_ns"`
	Workers int      `json:"workers"`
	Lanes   []string `json:"lanes,omitempty"`
	Spans   int      `json:"spans"`
}

// WriteJSONL streams the timeline as JSON Lines: one header record
// (kind "timeline", version JSONLVersion, the span count), then one
// record per span in timeline order. Every record is a single line, so
// the stream survives line-oriented tools (grep, jq -c, tail -f), and
// timelines appended to one stream stay separable by their headers.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := jsonlHeader{
		Kind: "timeline", Version: JSONLVersion, TraceID: t.TraceID, Root: t.Root,
		Parent: t.Parent, StartNS: t.Start.UnixNano(),
		WallNS: t.WallNS, Workers: t.Workers, Lanes: t.Lanes,
		Spans: len(t.Spans),
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for i := range t.Spans {
		if err := enc.Encode(&t.Spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceEvent is one Chrome trace-event record. TS/Dur are microseconds;
// fractional values carry the sub-microsecond part (Perfetto accepts
// decimals).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents serializes the timeline as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing: one complete ("X") event
// per span, one display lane (tid) per recording lane, lanes named via
// thread_name metadata. Span attrs plus the span/parent IDs ride in
// args so the trace stays joinable with the JSONL export.
func (t *Timeline) WriteTraceEvents(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ms"}
	f.TraceEvents = make([]traceEvent, 0, len(t.Spans)+len(t.Lanes)+1)
	f.TraceEvents = append(f.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "vulfi campaign " + t.TraceID},
	})
	for lane, name := range t.Lanes {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range t.Spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name, Cat: "vulfi", Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.DurNS) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
