package interp

import (
	"testing"

	"vulfi/internal/ir"
	"vulfi/internal/telemetry"
)

// publish adds one run's interpreter counters to reg the way a campaign
// publishes them after each top-level call.
func publish(reg *telemetry.Registry, it *Interp, tr *Trap) {
	reg.Counter("interp.instrs").Add(it.DynInstrs)
	reg.Counter("interp.vector_instrs").Add(it.DynVector)
	if tr != nil {
		reg.Counter("interp.traps").Inc()
	}
}

// TestMetricsFlushOnReturn: the counters read off an instance after a
// top-level call must match the accounted instruction stream. A rerun
// on the same instance accumulates, and Reset zeroes them, so counters
// published once per run from pooled, reset instances total exactly the
// instructions executed.
func TestMetricsFlushOnReturn(t *testing.T) {
	m := ir.NewModule("t")
	buildSum(m)
	cp := &countingProfiler{}
	it, err := New(m, Options{Observer: cp})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	run := func() {
		t.Helper()
		addr, tr := it.Mem.Alloc(10 * 4)
		if tr != nil {
			t.Fatal(tr)
		}
		if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr),
			IntValue(ir.I32, 10)); tr != nil {
			t.Fatal(tr)
		}
	}

	run()
	once := it.DynInstrs
	if once == 0 || cp.n != once || cp.vector != it.DynVector {
		t.Fatalf("after one run: observer %d/%d, interpreter %d/%d",
			cp.n, cp.vector, once, it.DynVector)
	}

	// A second call on the same instance adds only its own delta.
	run()
	if it.DynInstrs != 2*once || cp.n != it.DynInstrs {
		t.Fatalf("after rerun: interpreter %d, observer %d, want %d",
			it.DynInstrs, cp.n, 2*once)
	}

	// Reset starts the count afresh; publishing per reset run totals the
	// accounted stream with nothing counted twice.
	cp.n, cp.vector = 0, 0
	for i := 0; i < 3; i++ {
		if tr := it.Reset(Options{Observer: cp}); tr != nil {
			t.Fatal(tr)
		}
		if it.DynInstrs != 0 || it.DynVector != 0 {
			t.Fatalf("Reset left counters %d/%d", it.DynInstrs, it.DynVector)
		}
		run()
		publish(reg, it, nil)
	}
	if got := reg.Counter("interp.instrs").Value(); got != 3*once || got != cp.n {
		t.Fatalf("instrs counter = %d, want %d (observer saw %d)", got, 3*once, cp.n)
	}
	if got := reg.Counter("interp.vector_instrs").Value(); got != cp.vector {
		t.Fatalf("vector counter = %d, observer saw %d", got, cp.vector)
	}
	if got := reg.Counter("interp.traps").Value(); got != 0 {
		t.Fatalf("trap counter = %d on clean runs", got)
	}
}

// TestMetricsTrapCounting: a trap raised in a nested frame reaches the
// top-level caller as one trap, located at the innermost frame and
// stamped with the final instruction count, so a trapped call counts
// exactly once and its published instruction count is exact.
func TestMetricsTrapCounting(t *testing.T) {
	m := ir.NewModule("t")
	sum := buildSum(m)
	outer := ir.NewFunc("outer", ir.I32, []*ir.Type{ir.Ptr(ir.I32), ir.I32},
		[]string{"a", "n"})
	m.AddFunc(outer)
	b := ir.NewBuilder(outer.NewBlock("entry"))
	r := b.Call(sum, "r", outer.Params[0], outer.Params[1])
	b.Ret(r)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	cp := &countingProfiler{}
	it, err := New(m, Options{Budget: 10, Observer: cp}) // guarantees a budget trap
	if err != nil {
		t.Fatal(err)
	}
	addr, tr := it.Mem.Alloc(10 * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	_, tr = it.Run("outer", PtrValue(ir.Ptr(ir.I32), addr), IntValue(ir.I32, 10))
	if tr == nil || tr.Kind != TrapBudget {
		t.Fatalf("trap = %v, want budget", tr)
	}
	if tr.Func != "sum" {
		t.Fatalf("trap located in @%s, want the innermost frame @sum", tr.Func)
	}
	if tr.Dyn != it.DynInstrs || cp.n != it.DynInstrs {
		t.Fatalf("trap dyn %d, observer %d, interpreter %d: counts diverge at the trap",
			tr.Dyn, cp.n, it.DynInstrs)
	}
	reg := telemetry.NewRegistry()
	publish(reg, it, tr)
	if got := reg.Counter("interp.traps").Value(); got != 1 {
		t.Fatalf("trap counter = %d, want 1", got)
	}
	if got := reg.Counter("interp.instrs").Value(); got != cp.n {
		t.Fatalf("instrs counter = %d, observer saw %d", got, cp.n)
	}
}
