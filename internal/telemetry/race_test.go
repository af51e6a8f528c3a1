package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from GOMAXPROCS goroutines; run under -race this doubles as the data
// race check, and the totals check catches lost updates either way.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleave creation and use: lookups must be safe too.
			c := r.Counter("hammer.count")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
				if i%64 == 0 {
					// Snapshots must be safe concurrently with writers.
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(workers * perWorker)
	if got := r.Counter("hammer.count").Value(); got != total {
		t.Fatalf("counter lost updates: %d, want %d", got, total)
	}
	if got := r.Gauge("hammer.gauge").Value(); got != int64(total) {
		t.Fatalf("gauge lost updates: %d, want %d", got, total)
	}
	s := r.Histogram("hammer.hist").Snapshot()
	if s.Count != total {
		t.Fatalf("histogram lost observations: %d, want %d", s.Count, total)
	}
	if s.Min != 0 {
		t.Fatalf("min = %v, want 0", s.Min)
	}
	wantMax := time.Duration(workers*perWorker-1) * time.Microsecond
	if s.Max != wantMax {
		t.Fatalf("max = %v, want %v", s.Max, wantMax)
	}
}
