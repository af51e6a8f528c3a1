package interp

import (
	"bytes"
	"testing"

	"vulfi/internal/ir"
)

// stateModule is an empty module with one global, so a reset places
// the global's segment first, as it does for every compiled program.
func stateModule() *ir.Module {
	m := ir.NewModule("state")
	m.AddGlobal(&ir.Global{Nam: "g", Elem: ir.I32, Count: 4})
	return m
}

// TestRestoreContinuesAllocation: after a restore, the next Alloc
// returns the address the original run's next Alloc got, and the
// counters, output and detections are the snapshot's.
func TestRestoreContinuesAllocation(t *testing.T) {
	it, err := New(stateModule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, tr := it.Mem.Alloc(100); tr != nil {
		t.Fatal(tr)
	}
	it.DynInstrs, it.DynVector = 42, 7
	it.Output.WriteString("hello")
	it.Detect("fired")
	s := it.SaveState(nil)
	want, tr := it.Mem.Alloc(32)
	if tr != nil {
		t.Fatal(tr)
	}

	other, err := New(stateModule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other.RestoreState(s)
	got, tr := other.Mem.Alloc(32)
	if tr != nil {
		t.Fatal(tr)
	}
	if got != want {
		t.Fatalf("Alloc after restore = %#x, original run got %#x", got, want)
	}
	if other.DynInstrs != 42 || other.DynVector != 7 || other.Output.String() != "hello" ||
		len(other.Detections) != 1 || other.DetectionDyns[0] != 42 {
		t.Fatalf("restored counters %d/%d output %q detections %v@%v",
			other.DynInstrs, other.DynVector, other.Output.String(),
			other.Detections, other.DetectionDyns)
	}
	if s.DynInstrs() != 42 {
		t.Fatalf("State.DynInstrs = %d, want 42", s.DynInstrs())
	}
}

// TestRestoreNeverWritesTheState: a run that stores into restored
// memory writes its own storage, so a second restore from the same
// State sees the snapshot's bytes again.
func TestRestoreNeverWritesTheState(t *testing.T) {
	it, err := New(stateModule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := it.Mem.Alloc(16)
	if tr := it.Mem.StoreScalar(ir.I32, addr, 0x1234); tr != nil {
		t.Fatal(tr)
	}
	s := it.SaveState(nil)
	want, _ := it.Mem.ReadBytes(addr, 16)

	it.RestoreState(s)
	if tr := it.Mem.StoreScalar(ir.I32, addr, 0xDEAD); tr != nil {
		t.Fatal(tr)
	}
	it.Output.WriteString("scribble")
	if err := it.Reset(Options{}); err != nil {
		t.Fatal(err)
	}
	it.RestoreState(s)
	got, tr := it.Mem.ReadBytes(addr, 16)
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(got, want) || it.Output.Len() != 0 {
		t.Fatalf("second restore sees %x output %q, want %x and none",
			got, it.Output.String(), want)
	}
}

// TestSaveStateSharesUnchangedSegments: a segment whose bytes did not
// change since the previous State shares that State's copy, a changed
// one gets its own, and Bytes counts only what is not shared.
func TestSaveStateSharesUnchangedSegments(t *testing.T) {
	it, err := New(stateModule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := it.Mem.Alloc(64)  // read-only input
	out, _ := it.Mem.Alloc(64) // written between the snapshots
	if tr := it.Mem.StoreScalar(ir.I32, in, 5); tr != nil {
		t.Fatal(tr)
	}
	first := it.SaveState(nil)
	if tr := it.Mem.StoreScalar(ir.I32, out, 9); tr != nil {
		t.Fatal(tr)
	}
	second := it.SaveState(first)

	const global, input, output = 0, 1, 2
	for _, i := range []int{global, input} {
		if &second.data[i][0] != &first.data[i][0] {
			t.Errorf("unchanged segment %d was copied again", i)
		}
	}
	if &second.data[output][0] == &first.data[output][0] {
		t.Fatal("changed segment shares the previous copy")
	}
	table := int64(16 * len(second.segs))
	if got, want := second.Bytes(first), table+64; got != want {
		t.Errorf("Bytes(prev) = %d, want %d (segment table + the changed segment)", got, want)
	}
	if got, want := second.Bytes(nil), table+16+64+64; got != want {
		t.Errorf("Bytes(nil) = %d, want %d (segment table + every segment)", got, want)
	}
}
