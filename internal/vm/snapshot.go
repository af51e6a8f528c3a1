package vm

import (
	"slices"

	"vulfi/internal/interp"
)

// Snapshot is a copy of one run's state at a block head with phis in
// the depth-1 frame (the export function's own frame, no callee live):
// the interpreter state, the function and pc, the words of the
// registers live there, and clones of the parameters. Resume continues
// the run from it, and a Join compares another run with it. A Snapshot
// is never written after it is taken, so any number of machines may
// resume it and compare with it concurrently.
type Snapshot struct {
	state  *interp.State
	code   *fnCode
	pc     int32
	live   []int32        // code.live[pc]
	vals   []interp.Value // parallel to live; own words
	params []interp.Value
}

// DynInstrs returns the dynamic instruction count at which s was taken:
// the instructions a run resumed from s does not execute.
func (s *Snapshot) DynInstrs() uint64 { return s.state.DynInstrs() }

// Bytes returns the heap bytes s holds beyond what it shares with prev,
// the snapshot of the same run taken before it (or nil).
func (s *Snapshot) Bytes(prev *Snapshot) int64 {
	var ps *interp.State
	if prev != nil {
		ps = prev.state
	}
	n := s.state.Bytes(ps)
	for _, v := range s.vals {
		n += 8 * int64(len(v.Bits))
	}
	for _, v := range s.params {
		n += 8 * int64(len(v.Bits))
	}
	return n
}

// pointHook is what a Machine does at the snapshot points of a run, the
// block heads with phis reached in the depth-1 frame: a Recorder takes
// snapshots there and a Join compares the run with them. at runs before
// the phi group's accounting and reports whether the run stops there.
type pointHook interface {
	at(it *interp.Interp, code *fnCode, regs []interp.Value, pc int32) (stop bool)
}

// Recorder asks a Machine for snapshots of the runs it executes. At
// every block head with phis reached in the depth-1 frame once DynInstrs
// is at least Next, the machine hands Take a snapshot and sets Next to
// the count Take returns.
type Recorder struct {
	Next uint64
	Take func(*Snapshot) (next uint64)

	// prev is the state of the last snapshot taken, which the next one
	// shares unchanged segments with.
	prev *interp.State
}

// SetRecorder attaches (or, with nil, detaches) a snapshot recorder. It
// replaces an attached Join: a run records or compares, never both.
// Like the machine itself it survives interp.Reset, so a pooled instance
// must be detached before it runs anything else.
func (m *Machine) SetRecorder(r *Recorder) {
	m.hook = nil
	if r != nil {
		m.hook = r
	}
}

func (r *Recorder) at(it *interp.Interp, code *fnCode, regs []interp.Value, pc int32) bool {
	if it.DynInstrs >= r.Next {
		s := snapshot(it, code, regs, pc, r.prev)
		r.prev = s.state
		r.Next = r.Take(s)
	}
	return false
}

// snapshot copies the depth-1 frame at pc, a vPhiGroup whose accounting
// has not run yet; prev is the state of the run's previous snapshot.
func snapshot(it *interp.Interp, code *fnCode, regs []interp.Value, pc int32, prev *interp.State) *Snapshot {
	live := code.live[pc]
	s := &Snapshot{
		state:  it.SaveState(prev),
		code:   code,
		pc:     pc,
		live:   live,
		vals:   make([]interp.Value, len(live)),
		params: make([]interp.Value, len(code.fn.Params)),
	}
	n := 0
	for _, r := range live {
		n += len(regs[r].Bits)
	}
	words := make([]uint64, n)
	for i, r := range live {
		v := regs[r]
		w := words[:len(v.Bits):len(v.Bits)]
		words = words[len(v.Bits):]
		copy(w, v.Bits)
		s.vals[i] = interp.Value{Ty: v.Ty, Bits: w}
	}
	for i := range s.params {
		s.params[i] = regs[i].Clone()
	}
	return s
}

// Join asks a Machine to stop a run where it rejoins the run Snaps were
// taken from, for a caller that knows how that run ended. The machine
// compares the run with each snapshot only at the snapshot's own point:
// the same pc of the depth-1 frame at equal DynInstrs. A snapshot the
// run has passed is skipped. The comparison is in place and cheap parts
// go first: pc, DynInstrs, the live registers and the parameters, then
// the interpreter state (interp.Interp.SameState), segment bytes last.
// At the first match the run stops as if its function had returned no
// value and no trap, and At is set. From that point the run would have
// executed exactly what the snapshot's run executed after it, so its
// ending is that run's.
type Join struct {
	// Snaps are the snapshots to compare with, in the order their run
	// took them.
	Snaps []*Snapshot
	// At is the snapshot the run stopped at, or nil.
	At *Snapshot

	next int // index of the first of Snaps not yet passed
}

// SetJoin attaches (or, with nil, detaches) a join. It replaces an
// attached Recorder, and like one it must be detached before a pooled
// instance runs anything else.
func (m *Machine) SetJoin(j *Join) {
	m.hook = nil
	if j != nil {
		m.hook = j
	}
}

func (j *Join) at(it *interp.Interp, code *fnCode, regs []interp.Value, pc int32) bool {
	for j.next < len(j.Snaps) && j.Snaps[j.next].DynInstrs() < it.DynInstrs {
		j.next++
	}
	if j.next == len(j.Snaps) {
		return false
	}
	s := j.Snaps[j.next]
	if s.DynInstrs() != it.DynInstrs || s.pc != pc || s.code != code ||
		!s.sameFrame(regs) || !it.SameState(s.state) {
		return false
	}
	j.At = s
	return true
}

// sameFrame reports whether regs hold s's live registers and parameters.
// Registers not live at s's point are not compared: every path from
// there writes them before reading them.
func (s *Snapshot) sameFrame(regs []interp.Value) bool {
	for i, r := range s.live {
		if !slices.Equal(regs[r].Bits, s.vals[i].Bits) {
			return false
		}
	}
	for i, p := range s.params {
		if !slices.Equal(regs[i].Bits, p.Bits) {
			return false
		}
	}
	return true
}

// Resume continues the run s was taken from on it, which must be a reset
// interpreter of the same module with this machine attached and the
// same externs bound. It installs s's interpreter state, fills a frame
// with the saved registers, and runs the depth-1 body from s's pc. The
// result, the trap and every observable of it from there on are those
// of the uninterrupted run, given the same externs' behaviour.
// Registers not live at the snapshot point keep stale words: every path
// from there writes them before reading them.
func (m *Machine) Resume(it *interp.Interp, s *Snapshot) (interp.Value, *interp.Trap) {
	it.RestoreState(s.state)
	code := s.code
	fr := m.getFrame(code)
	for i, r := range s.live {
		v := s.vals[i]
		if d := fr.regs[r]; d.Ty == v.Ty && len(d.Bits) == len(v.Bits) {
			copy(d.Bits, v.Bits)
		} else {
			fr.regs[r] = v.Clone()
		}
	}
	res, tr := it.Resumed(func() (interp.Value, *interp.Trap) {
		// Parameters are only read, so the frame may alias s's clones.
		return m.run(it, code, fr, s.params, false, s.pc)
	})
	m.putFrame(code, fr)
	return res, tr
}
