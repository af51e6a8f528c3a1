package vm

import (
	"bytes"
	"math/rand"
	"slices"
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

// TestJoinNeedsEveryPart: a Join stops a run only where every part of
// its state equals the snapshot's. DotProduct's run is snapshotted at
// every loop header, and a snapshot from the middle is resumed with a
// join on the next one: once unchanged, and once per part with exactly
// that part changed: a live register word (the accumulator), a
// parameter word (the out pointer, read only after the loop), a memory
// byte (padding of out's segment, never read), the output stream, a
// detection, or DynVector. No change alters the path to the next
// snapshot point, so the comparison runs there. A changed run must not
// stop there and must end like the same run without a join; the
// unchanged run must stop there.
func TestJoinNeedsEveryPart(t *testing.T) {
	b := benchmarks.DotProduct
	res, err := codegen.CompileSource(b.Source, isa.AVX, b.Name)
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(res.Module)
	instance := func() *exec.Instance {
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		Attach(x.It, prog)
		return x
	}
	x := instance()
	var snaps []*Snapshot
	x.It.Engine().(*Machine).SetRecorder(&Recorder{Take: func(s *Snapshot) uint64 {
		snaps = append(snaps, s)
		return s.DynInstrs() + 1
	}})
	spec, err := b.Setup(x, rand.New(rand.NewSource(42)), benchmarks.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, tr := x.CallExport(b.Entry, spec.Args...); tr != nil {
		t.Fatal(tr)
	}
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots recorded, want several", len(snaps))
	}
	from, next := snaps[len(snaps)/2], snaps[len(snaps)/2+1]

	y := instance()
	m := y.It.Engine().(*Machine)
	// resume runs s on y with j attached (nil for none).
	resume := func(s *Snapshot, j *Join) endState {
		if err := y.Reset(interp.Options{}); err != nil {
			t.Fatal(err)
		}
		m.SetJoin(j)
		v, tr := m.Resume(y.It, s)
		m.SetJoin(nil)
		return endOf(t, y, spec, v, tr)
	}
	// reaches reports whether the run resumed from s passes next's point.
	reaches := func(s *Snapshot) bool {
		if err := y.Reset(interp.Options{}); err != nil {
			t.Fatal(err)
		}
		hit := false
		m.SetRecorder(&Recorder{Take: func(r *Snapshot) uint64 {
			hit = hit || r.pc == next.pc && r.DynInstrs() == next.DynInstrs()
			return r.DynInstrs() + 1
		}})
		m.Resume(y.It, s)
		m.SetRecorder(nil)
		return hit
	}

	j := &Join{Snaps: []*Snapshot{next}}
	if e := resume(from, j); j.At != next || e.trap != nil {
		t.Fatalf("unchanged run did not stop at the next snapshot point (trap %v)", e.trap)
	}

	// changed copies from with one part changed by change, which edits
	// the copy's registers and parameters or an interpreter holding its
	// state.
	changed := func(change func(c *Snapshot, it *interp.Interp)) *Snapshot {
		c := *from
		c.vals, c.params = slices.Clone(from.vals), slices.Clone(from.params)
		for i := range c.vals {
			c.vals[i] = c.vals[i].Clone()
		}
		for i := range c.params {
			c.params[i] = c.params[i].Clone()
		}
		z := instance()
		z.It.RestoreState(from.state)
		change(&c, z.It)
		c.state = z.It.SaveState(nil)
		return &c
	}
	parts := []struct {
		name   string
		change func(c *Snapshot, it *interp.Interp)
	}{
		{"live register", func(c *Snapshot, _ *interp.Interp) {
			for _, v := range c.vals {
				if v.Ty.IsVector() && v.Ty.Scalar().IsFloat() {
					v.Bits[0] ^= 1 << 30
					return
				}
			}
			t.Fatal("no float vector register is live at the snapshot point")
		}},
		{"parameter", func(c *Snapshot, _ *interp.Interp) { c.params[2].Bits[0] ^= 1 << 4 }},
		{"memory byte", func(_ *Snapshot, it *interp.Interp) {
			if tr := it.Mem.WriteBytes(spec.Outputs[0].Addr+12, []byte{0xA5}); tr != nil {
				t.Fatal(tr)
			}
		}},
		{"output", func(_ *Snapshot, it *interp.Interp) { it.Output.WriteString("!") }},
		{"detection", func(_ *Snapshot, it *interp.Interp) { it.Detect("changed") }},
		{"DynVector", func(_ *Snapshot, it *interp.Interp) { it.DynVector++ }},
	}
	for _, p := range parts {
		c := changed(p.change)
		if !reaches(c) {
			t.Fatalf("%s: the changed run never reaches the next snapshot point", p.name)
		}
		want := resume(c, nil)
		j := &Join{Snaps: []*Snapshot{next}}
		got := resume(c, j)
		if j.At != nil {
			t.Fatalf("%s: the changed run stopped at the next snapshot point", p.name)
		}
		sameEnd(t, p.name, got, want)
	}
}
