package main

import (
	"bytes"
	"errors"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
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
