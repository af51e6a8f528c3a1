package interp

import (
	"testing"

	"vulfi/internal/ir"
)

// countingProfiler is the minimal accounting Observer: it mirrors what
// DynInstrs counts, so the structural equality the profile package
// relies on is pinned here, next to the hook.
type countingProfiler struct {
	n      uint64
	vector uint64
}

func (c *countingProfiler) Account(in *ir.Instr) {
	c.n++
	if in.IsVectorInstr() {
		c.vector++
	}
}

func (c *countingProfiler) Retire(*ir.Instr, uint64, Value) {}

// TestProfilerSeesEveryAccountedInstr: Account must fire for exactly
// the instruction stream behind DynInstrs — phis and terminators
// included, which Retire deliberately skips.
func TestProfilerSeesEveryAccountedInstr(t *testing.T) {
	m := ir.NewModule("t")
	buildSum(m)
	cp := &countingProfiler{}
	it, err := New(m, Options{Observer: cp})
	if err != nil {
		t.Fatal(err)
	}
	addr, tr := it.Mem.Alloc(10 * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr),
		IntValue(ir.I32, 10)); tr != nil {
		t.Fatal(tr)
	}
	if cp.n != it.DynInstrs {
		t.Fatalf("profiler saw %d instrs, interpreter counted %d", cp.n, it.DynInstrs)
	}
	if cp.vector != it.DynVector {
		t.Fatalf("profiler saw %d vector instrs, interpreter counted %d",
			cp.vector, it.DynVector)
	}

	// Reset installs the new options' observer: none here.
	if tr := it.Reset(Options{}); tr != nil {
		t.Fatal(tr)
	}
	addr, tr = it.Mem.Alloc(10 * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	before := cp.n
	if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr),
		IntValue(ir.I32, 10)); tr != nil {
		t.Fatal(tr)
	}
	if cp.n != before {
		t.Fatal("observer survived Reset")
	}
}
