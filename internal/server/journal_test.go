package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vulfi/internal/campaign"
	"vulfi/internal/core"
	"vulfi/internal/interp"
)

func testSpec() Spec {
	return Spec{
		Benchmark: "VectorCopy", ISA: "AVX", Category: "control",
		Scale: "test", Experiments: 5, Campaigns: 2, Seed: 1,
	}
}

func sampleResult() *campaign.ExperimentResult {
	return &campaign.ExperimentResult{
		Outcome: campaign.OutcomeSDC, Detected: true,
		Record:   core.InjectionRecord{LaneSiteID: 7, Bit: 3, Width: 32, Before: 1, After: 9},
		DynSites: 42, GoldenDynInstrs: 1234, InputLabel: "n=13",
		Wall: 5 * time.Millisecond, FaultyWall: 2 * time.Millisecond,
		Trap: &interp.Trap{Kind: interp.TrapBudget, Msg: "budget"},
		Hang: true,
	}
}

// TestJournalRoundTrip: every record kind must survive write → replay
// bit-for-bit, including the full experiment result (the resume path
// depends on it).
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	j.Submit("j0001", spec)
	want := sampleResult()
	j.Experiment(0, 101, want)
	j.Experiment(3, 104, sampleResult())
	j.State(StateRunning, "", nil)
	j.State(StateDone, "", []byte(`{"sdc":1}`))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.ID != "j0001" || rp.Spec != spec {
		t.Fatalf("replayed identity %q %+v", rp.ID, rp.Spec)
	}
	if !rp.Terminal() || rp.State != StateDone || string(rp.Study) != `{"sdc":1}` {
		t.Fatalf("replayed state %q study %s", rp.State, rp.Study)
	}
	if len(rp.Completed) != 2 {
		t.Fatalf("replayed %d experiments, want 2", len(rp.Completed))
	}
	got := rp.Completed[0]
	if got.Outcome != want.Outcome || got.Record != want.Record ||
		got.DynSites != want.DynSites || got.Wall != want.Wall ||
		got.GoldenDynInstrs != want.GoldenDynInstrs ||
		got.InputLabel != want.InputLabel || !got.Hang ||
		got.Trap == nil || got.Trap.Kind != want.Trap.Kind {
		t.Fatalf("experiment result did not round-trip:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestJournalTruncatedTail: a crash can cut the final line mid-write;
// replay must keep everything before it and flag the truncation.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Submit("j0002", testSpec())
	j.Experiment(1, 102, sampleResult())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"exp","i":2,"se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rp, err := ReplayJournal(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	if !rp.Truncated {
		t.Fatal("truncation not reported")
	}
	if len(rp.Completed) != 1 || rp.Completed[1] == nil {
		t.Fatalf("intact prefix lost: %+v", rp.Completed)
	}
	if rp.Terminal() {
		t.Fatal("truncated journal must resume, not terminate")
	}
}

// TestJournalCorruptMiddle: damage that is not a crash-truncated tail is
// an error, not something to silently skip.
func TestJournalCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Submit("j0003", testSpec())
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("{corrupt}\n")
	f.WriteString(`{"t":"state","state":"running"}` + "\n")
	f.Close()
	if _, err := ReplayJournal(path); err == nil {
		t.Fatal("mid-journal corruption must fail replay")
	}
}

// TestScanJournalsSkipsDamaged: one bad journal must not block a daemon
// restart; the damaged callback reports it. A submit record without a
// spec is such damage: replay reports it as an error, not a panic.
func TestScanJournalsSkipsDamaged(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalPath(dir, "jgood"), false)
	if err != nil {
		t.Fatal(err)
	}
	j.Submit("jgood", testSpec())
	j.Close()
	// No submit record at all: damaged.
	if err := os.WriteFile(JournalPath(dir, "jbad"),
		[]byte(`{"t":"state","state":"running"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir, "jnospec"),
		[]byte(`{"t":"submit","id":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := map[string]error{}
	rps, err := ScanJournals(dir, func(path string, err error) {
		damaged[filepath.Base(path)] = err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != 1 || rps[0].ID != "jgood" {
		t.Fatalf("scan returned %d replays", len(rps))
	}
	if len(damaged) != 2 || damaged["jbad.jsonl"] == nil {
		t.Fatalf("damaged callback got %v", damaged)
	}
	if err := damaged["jnospec.jsonl"]; err == nil || !strings.Contains(err.Error(), "without a spec") {
		t.Fatalf("submit record without a spec reported as %v", err)
	}
}
