package trace

import (
	"sync"
	"testing"
)

// TestConcurrentRings checks that independent rings retiring in parallel
// share no state (each experiment's interpreter owns its ring).
func TestConcurrentRings(t *testing.T) {
	fx := buildDivergeFixture(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRing(16)
			for i := 0; i < 100; i++ {
				r.Retire(fx.a, uint64(i+1), v32(uint64(w*1000+i)))
			}
			if r.Retired() != 100 || r.Len() != 16 {
				t.Errorf("worker %d: retired=%d len=%d", w, r.Retired(), r.Len())
			}
			if last := r.At(r.Len() - 1); last.Bits[0] != uint64(w*1000+99) {
				t.Errorf("worker %d: tail entry %v", w, last.Bits)
			}
		}(w)
	}
	wg.Wait()
}
