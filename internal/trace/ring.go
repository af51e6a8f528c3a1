// Package trace is the fault-propagation observability layer: a bounded
// execution-trace recorder for the interpreter (Ring), a divergence
// engine that compares a golden and a faulty recording in lockstep to
// explain each experiment outcome (Analyze/Explanation — first
// divergence, propagation depth and lane spread, control/address slice
// crossings, time to detection), and the per-study aggregation with its
// per-site SDC blame ranking (Summarize, a fold over a finished study's
// explanations that keeps no state between calls).
package trace

import (
	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// A Ring is an interp.Observer.
var _ interp.Observer = (*Ring)(nil)

// DefaultCap bounds auto-sized rings, in entries. At ~3 words plus the
// lane payload per entry this caps a ring in the low tens of MB while
// covering every built-in benchmark's default-scale run without drops.
const DefaultCap = 1 << 20

// Entry is one retired instruction: the static instruction, the dynamic
// instruction index at which it retired, and a snapshot of its per-lane
// result bits (nil for void results such as stores).
type Entry struct {
	Instr *ir.Instr
	Dyn   uint64
	Bits  []uint64
}

// Ref locates the entry as a JSON-safe instruction reference.
func (e Entry) Ref() InstrRef {
	r := InstrRef{Instr: e.Instr.String(), Dyn: e.Dyn}
	if b := e.Instr.Parent; b != nil {
		r.Block = b.Nam
		if b.Func != nil {
			r.Func = b.Func.Nam
		}
	}
	return r
}

// Ring is a bounded execution-trace recorder implementing
// interp.Observer. It grows to at most its capacity and then evicts the
// oldest entries (counted by Dropped), bounding memory for arbitrarily
// long runs while keeping the most recent window for crash forensics.
// A Ring belongs to one interpreter instance and is not safe for
// concurrent use.
type Ring struct {
	buf     []Entry
	cap     int
	start   int // index of the logically first entry once full
	dropped uint64
}

// NewRing returns a ring holding at most capacity entries (<=0 selects
// DefaultCap). Storage grows on demand rather than being preallocated.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Ring{cap: capacity}
}

// Account implements interp.Observer; a ring records retirements only.
func (r *Ring) Account(*ir.Instr) {}

// Retire implements interp.Observer: it appends the retired instruction,
// copying the value's lane payload (the interpreter may reuse it).
func (r *Ring) Retire(in *ir.Instr, dyn uint64, v interp.Value) {
	var bits []uint64
	if len(v.Bits) > 0 {
		bits = make([]uint64, len(v.Bits))
		copy(bits, v.Bits)
	}
	e := Entry{Instr: in, Dyn: dyn, Bits: bits}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.start] = e
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
	r.dropped++
}

// Len returns the number of retained entries.
func (r *Ring) Len() int { return len(r.buf) }

// At returns the i-th retained entry in retirement order (0 = oldest
// retained).
func (r *Ring) At(i int) Entry { return r.buf[(r.start+i)%len(r.buf)] }

// Dropped returns how many old entries were evicted to stay within
// capacity.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Cap returns the ring's capacity in entries.
func (r *Ring) Cap() int { return r.cap }

// Retired returns the total number of instructions ever recorded,
// including evicted ones.
func (r *Ring) Retired() uint64 { return uint64(len(r.buf)) + r.dropped }
