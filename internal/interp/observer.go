package interp

import "vulfi/internal/ir"

// Observer is the one execution-observation seam: trace recorders,
// profilers and test probes all attach through it (Options.Observer).
// The interp package defines the interface rather than importing a
// concrete observer, keeping the dependency arrow pointing outward
// (trace and profile import interp, never the reverse).
//
// Account fires for every accounted instruction — phis, terminators and
// void instructions alike — before it executes: the exact stream behind
// DynInstrs, so an observer that counts Account calls totals DynInstrs
// structurally.
//
// Retire fires after every retired non-terminator with the dynamic
// instruction index and the result value. Phi nodes retire with their
// post-parallel-copy value; void instructions (stores, void calls)
// retire with a zero Value; terminators (br/condbr/ret/unreachable) do
// not retire, control flow is implied by the instruction sequence.
//
// Both methods sit on the interpreter's innermost loop and must be
// cheap. An implementation must not retain v or its Bits slice beyond
// the call — copy what it keeps; the bytecode backend recycles result
// storage — and must never write v's words, which may be an IR
// constant's or another instruction's (see Value). With no observer
// attached the hot path pays one nil check per instruction.
type Observer interface {
	Account(in *ir.Instr)
	Retire(in *ir.Instr, dyn uint64, v Value)
}

// Observer returns the attached execution observer, or nil. Engines
// read it once per call to replay the tree-walker's event stream.
func (it *Interp) Observer() Observer { return it.obs }
