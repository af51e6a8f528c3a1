package interp

import (
	"bytes"
	"slices"
)

// State is a copy of an interpreter's execution state at one point of a
// run: the memory image (segments, their bytes, the next allocation
// address), DynInstrs and DynVector, the program output, and the
// detector firings. SaveState takes one, RestoreState installs one and
// SameState compares a live interpreter with one. Nothing writes to a
// State after SaveState returns (RestoreState copies out of it), so one
// State may be restored and compared by any number of interpreters
// concurrently.
type State struct {
	segs []segment
	data [][]byte // parallel to segs
	next uint64

	dynInstrs, dynVector uint64
	output               []byte
	detections           []string
	detectionDyns        []uint64
}

// SaveState copies the interpreter's execution state. prev, when
// non-nil, is an earlier State of the same run: a segment whose bytes
// equal prev's copy of it shares that copy instead of copying again, so
// a run's read-only inputs are held once however many States it takes.
func (it *Interp) SaveState(prev *State) *State {
	m := it.Mem
	s := &State{
		segs:          slices.Clone(m.segs),
		data:          make([][]byte, len(m.segs)),
		next:          m.next,
		dynInstrs:     it.DynInstrs,
		dynVector:     it.DynVector,
		output:        bytes.Clone(it.Output.Bytes()),
		detections:    slices.Clone(it.Detections),
		detectionDyns: slices.Clone(it.DetectionDyns),
	}
	for i, sg := range m.segs {
		cur := m.data[sg.start]
		if prev != nil && i < len(prev.segs) && prev.segs[i] == sg && bytes.Equal(prev.data[i], cur) {
			s.data[i] = prev.data[i]
			continue
		}
		s.data[i] = bytes.Clone(cur)
	}
	return s
}

// DynInstrs returns the dynamic instruction count at which s was taken.
func (s *State) DynInstrs() uint64 { return s.dynInstrs }

// SameState reports whether the interpreter's execution state equals s,
// comparing in place and copying nothing: the counters, the next
// allocation address, the segment table, the output and the detections
// with their dyns first, the segment bytes last.
func (it *Interp) SameState(s *State) bool {
	m := it.Mem
	if it.DynInstrs != s.dynInstrs || it.DynVector != s.dynVector || m.next != s.next ||
		!slices.Equal(m.segs, s.segs) || !bytes.Equal(it.Output.Bytes(), s.output) ||
		!slices.Equal(it.Detections, s.detections) || !slices.Equal(it.DetectionDyns, s.detectionDyns) {
		return false
	}
	for i, sg := range m.segs {
		if !bytes.Equal(m.data[sg.start], s.data[i]) {
			return false
		}
	}
	return true
}

// Bytes returns the heap bytes s holds beyond what it shares with prev
// (the State taken before it, or nil): each segment copy it does not
// share, the output, the detections and the segment table.
func (s *State) Bytes(prev *State) int64 {
	n := len(s.output) + 8*len(s.detectionDyns) + 16*len(s.segs)
	for _, d := range s.detections {
		n += len(d)
	}
	for i, b := range s.data {
		if prev != nil && i < len(prev.data) && len(prev.data[i]) == len(b) && &prev.data[i][0] == &b[0] {
			continue // shared with prev (segments are never empty)
		}
		n += len(b)
	}
	return int64(n)
}

// RestoreState replaces the interpreter's execution state with a copy of
// s. The segment bytes are copied into the interpreter's own recycled
// segment storage, never aliased, so s stays untouched. The interpreter
// must be a reset instance of the module s was taken from: its globals
// then sit at the addresses they had in that run (Reset allocates them
// first, in module order), and its budget, observer and pulse stay its
// own.
func (it *Interp) RestoreState(s *State) {
	it.Mem.restore(s.segs, s.data, s.next)
	it.Output.Reset()
	it.Output.Write(s.output)
	it.DynInstrs, it.DynVector = s.dynInstrs, s.dynVector
	it.Detections = append(it.Detections[:0], s.detections...)
	it.DetectionDyns = append(it.DetectionDyns[:0], s.detectionDyns...)
}

// Depth returns the current call depth: 0 between runs, 1 while the
// export function's own frame is the only one live.
func (it *Interp) Depth() int { return it.depth }

// Resumed runs body as the depth-1 call of a run: the export function's
// frame, which a resumed snapshot continues in. Inside body the call
// depth, and with it the TrapStack check of every nested Call, is what
// it is inside that function's own Call.
func (it *Interp) Resumed(body func() (Value, *Trap)) (Value, *Trap) {
	it.depth++
	defer func() { it.depth-- }()
	return body()
}
