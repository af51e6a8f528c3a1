package vm

import (
	"bytes"
	"math/rand"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
)

// endState is everything observable about how a run ended.
type endState struct {
	dump, output string
	outputs      []byte // the spec's declared output regions
	dyn, vec     uint64
	val          string
	trap         *interp.Trap
}

func endOf(t *testing.T, x *exec.Instance, spec *benchmarks.RunSpec, v interp.Value, tr *interp.Trap) endState {
	t.Helper()
	e := endState{
		dump: x.It.DumpState(), output: x.It.Output.String(),
		dyn: x.It.DynInstrs, vec: x.It.DynVector, trap: tr,
	}
	if v.Ty != nil {
		e.val = v.String()
	}
	for _, rg := range spec.Outputs {
		b, err := x.ReadRaw(rg.Addr, rg.Size)
		if err != nil {
			t.Fatal(err)
		}
		e.outputs = append(e.outputs, b...)
	}
	return e
}

func sameEnd(t *testing.T, what string, got, want endState) {
	t.Helper()
	if got.dump != want.dump {
		t.Errorf("%s: DumpState:\ngot:  %s\nwant: %s", what, got.dump, want.dump)
	}
	if got.output != want.output || !bytes.Equal(got.outputs, want.outputs) {
		t.Errorf("%s: program output differs", what)
	}
	if got.dyn != want.dyn || got.vec != want.vec {
		t.Errorf("%s: dyn/vec %d/%d, want %d/%d", what, got.dyn, got.vec, want.dyn, want.vec)
	}
	if got.val != want.val {
		t.Errorf("%s: return value %s, want %s", what, got.val, want.val)
	}
	if (got.trap == nil) != (want.trap == nil) || got.trap != nil && *got.trap != *want.trap {
		t.Errorf("%s: trap %+v, want %+v", what, got.trap, want.trap)
	}
}

// TestSnapshotResumeAllBenchmarks records a snapshot at every block
// head with phis of the depth-1 frame (spacing 1) of every benchmark on
// both ISAs, resumes each into a fresh (then reset) instance, and
// requires the resumed run to end exactly as the uninterrupted one did:
// memory dump, output, counters, return value and trap. The second pass runs under a
// budget that runs out halfway, so every resumed run must hit TrapBudget
// with the uninterrupted run's Dyn and provenance.
func TestSnapshotResumeAllBenchmarks(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			t.Run(b.Name+"/"+target.Name, func(t *testing.T) {
				res, err := codegen.CompileSource(b.Source, target, b.Name)
				if err != nil {
					t.Fatal(err)
				}
				prog := Compile(res.Module)
				instance := func(budget uint64) *exec.Instance {
					x, err := exec.NewInstance(res, interp.Options{Budget: budget})
					if err != nil {
						t.Fatal(err)
					}
					Attach(x.It, prog)
					return x
				}
				run := func(budget uint64) (endState, []*Snapshot) {
					x := instance(budget)
					m := x.It.Engine().(*Machine)
					var snaps []*Snapshot
					m.SetRecorder(&Recorder{Take: func(s *Snapshot) uint64 {
						if d := x.It.Depth(); d != 1 {
							t.Fatalf("snapshot at call depth %d", d)
						}
						snaps = append(snaps, s)
						return s.DynInstrs() + 1
					}})
					spec, err := b.Setup(x, rand.New(rand.NewSource(42)), benchmarks.ScaleTest)
					if err != nil {
						t.Fatal(err)
					}
					v, tr := x.CallExport(b.Entry, spec.Args...)
					m.SetRecorder(nil)
					want := endOf(t, x, spec, v, tr)
					if len(snaps) == 0 {
						t.Fatal("no snapshot recorded")
					}
					// One instance resumes every snapshot in turn, so each
					// resume also starts from the previous one's leftovers.
					y := instance(budget)
					for i, s := range snaps {
						if err := y.Reset(interp.Options{Budget: budget}); err != nil {
							t.Fatal(err)
						}
						v, tr := y.It.Engine().(*Machine).Resume(y.It, s)
						sameEnd(t, "resumed", endOf(t, y, spec, v, tr), want)
						if t.Failed() {
							t.Fatalf("snapshot %d of %d (dyn %d) diverged", i, len(snaps), s.DynInstrs())
						}
					}
					return want, snaps
				}
				full, snaps := run(0)
				if full.trap != nil {
					t.Fatalf("uninterrupted run trapped: %v", full.trap)
				}
				// A phi group checks the budget once its phis are accounted,
				// so this budget traps where the middle snapshot was taken.
				if low, _ := run(snaps[len(snaps)/2].DynInstrs()); low.trap == nil || low.trap.Kind != interp.TrapBudget {
					t.Fatalf("low-budget run ended with %v, want a budget trap", low.trap)
				}
			})
		}
	}
}
