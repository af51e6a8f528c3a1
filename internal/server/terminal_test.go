package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vulfi/internal/atlas"
	"vulfi/internal/campaign"
)

// TestJobTerminalPaths settles each kind of job through every terminal
// path of runJob's one switch: done, cancelled, interrupted by a drain
// and then resumed by a second daemon, and failed on a journaled spec
// that no longer validates. The kinds are a plain job, a worker's shard
// range, and a sharded job on a coordinator with no workers, whose
// shards therefore run on the coordinator's own pool. Each case checks
// the state against the journal's last state record, the server's job
// counters, and the history store: an entry exists exactly when the job
// is done and is not a shard range, and it is stored by the time the
// job is seen done. A finished job's result, resumed or not, is the
// uninterrupted run's, wall fields aside.
func TestJobTerminalPaths(t *testing.T) {
	kinds := []struct {
		name string
		edit func(*Spec)
	}{
		{"plain", func(*Spec) {}},
		{"shard-range", func(s *Spec) { s.ShardStart, s.ShardEnd = 2, 7 }},
		{"sharded", func(s *Spec) { s.Shards = 2 }},
	}
	for _, k := range kinds {
		spec := testSpec()
		spec.Workers = 1 // a throttled job then reliably outlasts the cancel or drain
		k.edit(&spec)
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		ref, err := campaign.RunStudy(ctx, cfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		want := stripWall(t, marshalStudy(ref))
		historied := spec.ShardEnd == 0

		for _, outcome := range []string{"done", "cancelled", "interrupted", "failed"} {
			t.Run(k.name+"/"+outcome, func(t *testing.T) {
				dir := t.TempDir()
				open := func(throttle time.Duration) *Server {
					return newTestServer(t, Options{
						JournalDir: dir, Coordinator: true,
						HarvestEvery: 20 * time.Millisecond, expThrottle: throttle,
					})
				}
				entries := func(id string) int {
					t.Helper()
					es, err := atlas.ReadHistory(filepath.Join(dir, "history.jsonl"))
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					for _, e := range es {
						if e.Job == id {
							n++
						}
					}
					return n
				}
				journaled := func(id string) string {
					t.Helper()
					rp, err := ReplayJournal(JournalPath(dir, id))
					if err != nil {
						t.Fatal(err)
					}
					return rp.State
				}
				// settle polls until the job reaches state, reading its
				// journal's last state and counting its history entries
				// at the first sight of it.
				settle := func(s *Server, id, state string) (Status, string, int) {
					t.Helper()
					deadline := time.Now().Add(2 * time.Minute)
					for time.Now().Before(deadline) {
						if s.Job(id).State() == state {
							rec, n := journaled(id), entries(id)
							return s.Job(id).Status(), rec, n
						}
						time.Sleep(time.Millisecond)
					}
					t.Fatalf("job %s never reached %q (at %q)", id, state, s.Job(id).State())
					return Status{}, "", 0
				}
				// check compares a settled job with state. The journal
				// record was read when the state was first seen: finish
				// journals a state before it publishes it.
				check := func(s *Server, st Status, rec, state string, history int, counts [3]uint64) {
					t.Helper()
					if st.State != state {
						t.Fatalf("state %q, want %q", st.State, state)
					}
					if rec != state {
						t.Fatalf("journal's last state %q when the job was seen %q", rec, state)
					}
					if n := entries(st.ID); n != history {
						t.Fatalf("%d history entries, want %d", n, history)
					}
					var got [3]uint64
					for i, name := range []string{"completed", "cancelled", "failed"} {
						got[i] = s.Registry().Counter("server.jobs." + name).Value()
					}
					if got != counts {
						t.Fatalf("completed/cancelled/failed = %v, want %v", got, counts)
					}
				}
				doneHistory := 0
				if historied {
					doneHistory = 1
				}
				checkResult := func(st Status) {
					t.Helper()
					if got := stripWall(t, st.Result); !reflect.DeepEqual(got, want) {
						t.Fatalf("result differs from the uninterrupted run:\nwant %v\ngot  %v", want, got)
					}
				}
				// firstExperiment waits until the job has checkpointed an
				// experiment, so a cancel or drain lands mid-run.
				firstExperiment := func(job *Job) {
					t.Helper()
					deadline := time.Now().Add(2 * time.Minute)
					for job.Status().Done == 0 {
						if time.Now().After(deadline) {
							t.Fatal("no experiment finished")
						}
						time.Sleep(time.Millisecond)
					}
				}

				switch outcome {
				case "done":
					s := open(0)
					defer drain(t, s)
					job, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					st, rec, n := settle(s, job.ID, StateDone)
					if n != doneHistory {
						t.Fatalf("%d history entries when the job turned done, want %d", n, doneHistory)
					}
					check(s, st, rec, StateDone, doneHistory, [3]uint64{1, 0, 0})
					checkResult(st)

				case "cancelled":
					s := open(20 * time.Millisecond)
					defer drain(t, s)
					job, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					firstExperiment(job)
					if !job.RequestCancel() {
						t.Fatal("running job refused the cancel")
					}
					st, rec, _ := settle(s, job.ID, StateCancelled)
					if st.Done >= st.Total {
						t.Fatalf("cancelled at %d/%d experiments, want mid-run", st.Done, st.Total)
					}
					check(s, st, rec, StateCancelled, 0, [3]uint64{0, 1, 0})

				case "interrupted":
					s1 := open(20 * time.Millisecond)
					job, err := s1.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					firstExperiment(job)
					drain(t, s1)
					st := job.Status()
					if st.Done >= st.Total {
						t.Fatalf("interrupted at %d/%d experiments, want mid-run", st.Done, st.Total)
					}
					check(s1, st, journaled(job.ID), StateInterrupted, 0, [3]uint64{0, 0, 0})

					s2 := open(0)
					defer drain(t, s2)
					if st := s2.Job(job.ID).Status(); !st.Resumed {
						t.Fatalf("restarted job %+v not marked resumed", st)
					}
					st, rec, n := settle(s2, job.ID, StateDone)
					if n != doneHistory {
						t.Fatalf("%d history entries when the job turned done, want %d", n, doneHistory)
					}
					check(s2, st, rec, StateDone, doneHistory, [3]uint64{1, 0, 0})
					checkResult(st)

				case "failed":
					huge := spec
					huge.Experiments, huge.Campaigns = 3037000500, 3037000500
					raw, err := json.Marshal(huge)
					if err != nil {
						t.Fatal(err)
					}
					line := `{"t":"submit","id":"jhuge","spec":` + string(raw) + "}\n"
					if err := os.WriteFile(JournalPath(dir, "jhuge"), []byte(line), 0o644); err != nil {
						t.Fatal(err)
					}
					s := open(0)
					defer drain(t, s)
					st, rec, _ := settle(s, "jhuge", StateFailed)
					if !strings.Contains(st.Error, "Campaigns × Experiments") {
						t.Fatalf("job failed with %q, want the schedule bound", st.Error)
					}
					check(s, st, rec, StateFailed, 0, [3]uint64{0, 0, 1})
				}
			})
		}
	}
}

// TestResumeRecordsHistoryOnce restarts a daemon that died after it
// stored a finished job's history entry but before it journaled the
// job's end: the journal's last state is running, and the history
// store already holds the job's entry. The resumed job ends done, and
// the store still holds exactly one entry for it.
func TestResumeRecordsHistoryOnce(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	entries := func(id string) int {
		t.Helper()
		es, err := atlas.ReadHistory(history)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range es {
			if e.Job == id {
				n++
			}
		}
		return n
	}

	s1 := newTestServer(t, Options{JournalDir: dir})
	job, err := s1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, job.ID, StateDone)
	drain(t, s1)
	if n := entries(job.ID); n != 1 {
		t.Fatalf("%d history entries after the first run, want 1", n)
	}

	// Cut the journal back to before its terminal record.
	path := JournalPath(dir, job.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"t":"state"`) || !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("journal ends with %s, want the done record", last)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rp, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.State != StateRunning {
		t.Fatalf("cut journal replays to state %q, want %q", rp.State, StateRunning)
	}

	s2 := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s2)
	st := waitState(t, s2, job.ID, StateDone)
	if !st.Resumed {
		t.Fatalf("restarted job %+v not marked resumed", st)
	}
	if n := entries(job.ID); n != 1 {
		t.Fatalf("%d history entries after the resume, want 1", n)
	}
}
