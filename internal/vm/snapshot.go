package vm

import "vulfi/internal/interp"

// Snapshot is a copy of one run's state at a block head with phis in
// the depth-1 frame (the export function's own frame, no callee live):
// the interpreter state, the function and pc, the words of the
// registers live there, and clones of the parameters. Resume continues
// the run from it. A Snapshot is never written after it is taken, so
// any number of machines may resume it concurrently.
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

// SetRecorder attaches (or, with nil, detaches) a snapshot recorder.
// Like the machine itself it survives interp.Reset, so a pooled instance
// must be detached before it runs anything else.
func (m *Machine) SetRecorder(r *Recorder) { m.rec = r }

// snapshot hands m.rec a snapshot of the depth-1 frame at pc, a
// vPhiGroup whose accounting has not run yet.
func (m *Machine) snapshot(it *interp.Interp, code *fnCode, regs []interp.Value, pc int32) {
	live := code.live[pc]
	s := &Snapshot{
		state:  it.SaveState(m.rec.prev),
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
	m.rec.prev = s.state
	m.rec.Next = m.rec.Take(s)
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
		res, tr, _ := m.run(it, code, fr, s.params, false, s.pc)
		return res, tr
	})
	m.free[code.ix] = append(m.free[code.ix], fr)
	return res, tr
}
