package campaign

import (
	"sync"

	"vulfi/internal/benchmarks"
	"vulfi/internal/lang"
)

var (
	progMu    sync.Mutex
	progCache = map[*benchmarks.Benchmark]*lang.Program{}
)

// compileProgram parses and checks a benchmark source once per process;
// the checked program is immutable and shared across ISA compilations.
func compileProgram(b *benchmarks.Benchmark) *lang.Program {
	progMu.Lock()
	defer progMu.Unlock()
	if p, ok := progCache[b]; ok {
		return p
	}
	p, err := lang.Compile(b.Source)
	if err != nil {
		// Benchmark sources are part of the library; failing to compile
		// one is a programming error, not a runtime condition.
		panic("benchmark " + b.Name + " does not compile: " + err.Error())
	}
	progCache[b] = p
	return p
}
