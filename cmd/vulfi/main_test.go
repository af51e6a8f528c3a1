package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
	"vulfi/internal/report"
	"vulfi/internal/server"
)

var errFull = errors.New("no space left on device")

// failAfter accepts n bytes, then fails every write with errFull.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteCSVReportsWriteErrors: `vulfi -csv` exits 1 when stdout
// fails, as -json does, whether the header or the row is cut off.
func TestWriteCSVReportsWriteErrors(t *testing.T) {
	sr := &campaign.StudyResult{}
	sr.Cfg.Benchmark = benchmarks.VectorCopy
	sr.Cfg.ISA = isa.AVX
	sr.Cfg.Category = passes.PureData
	var header bytes.Buffer
	if err := campaign.WriteCSVHeader(&header); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, header.Len()} {
		if err := writeCSV(&failAfter{n}, sr); !errors.Is(err, errFull) {
			t.Errorf("writer failing after %d bytes: got %v, want %v", n, err, errFull)
		}
	}
	var out bytes.Buffer
	if err := writeCSV(&out, sr); err != nil || !bytes.HasPrefix(out.Bytes(), header.Bytes()) {
		t.Fatalf("writeCSV = %v, output %q", err, out.String())
	}
}

// TestRemoteRejectsCSV: `vulfi -remote ADDR -csv` exits 2 with the
// shared mutually-exclusive message before it sends the daemon a
// request. The test binary runs vulfi's main as a child process when
// given vulfi's arguments after "--".
func TestRemoteRejectsCSV(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"vulfi"}, args...)
		main()
		return
	}
	var requests atomic.Int32
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer daemon.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemoteRejectsCSV$", "--",
		"-remote", daemon.URL, "-experiments", "2", "-campaigns", "1", "-csv")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("vulfi -remote -csv: %v, want exit status 2; stderr %q", err, stderr.String())
	}
	if want := "-csv cannot be combined with -remote"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q, want it to contain %q", stderr.String(), want)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the daemon got %d requests", n)
	}
}

// TestRemoteSummaryInfiniteMargin: a one-campaign study's margin of
// error is +Inf, which the study JSON carries as -1; the remote text
// summary prints its SDC line as a local run of the study does.
func TestRemoteSummaryInfiniteMargin(t *testing.T) {
	sr, err := campaign.RunStudy(context.Background(), campaign.Config{
		Benchmark: benchmarks.VectorCopy, ISA: isa.AVX, Category: passes.PureData,
		Scale: benchmarks.ScaleTest, Experiments: 2, Campaigns: 1, Seed: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var local, js, remote bytes.Buffer
	report.WriteStudy(&local, sr, false)
	if err := sr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	st := &server.Status{ID: "j1", State: server.StateDone, Result: js.Bytes()}
	if err := printRemoteResult(&remote, st, false); err != nil {
		t.Fatal(err)
	}
	sdcLine := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "SDC ") {
				return l
			}
		}
		return ""
	}
	want := sdcLine(local.String())
	if !strings.Contains(want, "±+Inf%") {
		t.Fatalf("local SDC line %q: want an infinite margin", want)
	}
	if got := sdcLine(remote.String()); got != want {
		t.Errorf("remote SDC line %q, want the local %q", got, want)
	}
}
