package interp

import "vulfi/internal/ir"

// Engine is an alternate execution backend for function bodies. An
// attached engine runs every call to a defined (non-declaration)
// function after the interpreter has performed the shared call protocol
// — extern dispatch, depth accounting, argument-count checking — and
// executes the body against the interpreter's own observable state
// (DynInstrs/DynVector, memory, output, detections, the observer). The
// interpreter never tree-walks a function while an engine is attached,
// so an engine must run every function of a module that ir.Verify
// accepts.
//
// The contract is strict equivalence: an engine must reproduce the
// tree-walker's observable behavior exactly — identical DynInstrs
// accounting (including phis and terminators), identical budget-check
// schedule, identical trap kinds/messages/provenance, and identical
// Observer event streams. The differential tests in internal/vm and
// internal/campaign pin this contract. So an engine may replace extern
// calls by one BulkCounter call only where no observer is attached and
// every budget check that falls among the instructions it skips would
// pass, and it runs each of those checks itself, at its own count (see
// OverBudget), so the pulse sees the tree-walker's schedule. An engine
// that dispatches extern calls itself reads the callee's entry in the
// interpreter's extern table at every call, as Call does, so a
// re-registered extern, or the bulk counter it drops, takes effect on
// the next call; it may read the entry by function number (see
// ExternAt) where ir.Verify and the engine's own attach check have
// shown the callee to be the module's.
//
// Like registered externs, the engine survives Reset: campaign instance
// pools reset-and-reuse interpreters without re-attaching their
// backend.
type Engine interface {
	CallCompiled(it *Interp, f *ir.Func, args []Value) (Value, *Trap)
}

// SetEngine attaches (or, with nil, detaches) an execution engine.
func (it *Interp) SetEngine(e Engine) { it.engine = e }

// Engine returns the attached execution engine, or nil.
func (it *Interp) Engine() Engine { return it.engine }

// The methods below export exactly the hooks an Engine needs to
// replicate the tree-walker's observable contract without duplicating
// its semantics: budget checks, trap provenance and the scalar/vector
// operation kernels (the observer is read through Observer, externs and
// bulk counters through Extern and ExternAt). Engines must use these
// rather than re-implement them, so the two backends cannot drift.

// CheckBudget reports a TrapBudget when the executed-instruction count
// has exceeded the configured budget, with the tree-walker's exact
// message. Engines call it on the same schedule as the interpreter:
// after every phi block, and after accounting a non-phi instruction
// whenever DynInstrs is a multiple of 1024.
func (it *Interp) CheckBudget() *Trap { return it.checkBudget() }

// OverBudget reports whether CheckBudget would trap with DynInstrs at
// n. An engine that accounts several instructions in one step asks it
// for a 1024 boundary among them before it takes the step, and, when
// the check would pass, runs it with DynInstrs at the boundary.
func (it *Interp) OverBudget(n uint64) bool { return n > it.budget }

// LocateTrap stamps tr with the provenance of in (innermost frame
// wins), exactly as the tree-walker does before unwinding a trap.
func (it *Interp) LocateTrap(tr *Trap, in *ir.Instr) *Trap { return it.locate(tr, in) }

// Exported operation kernels. These run the tree-walker's own lane
// loops (execInstr reaches the same loops through its allocating
// wrappers) into a caller-provided result value whose Bits already hold
// one word per lane, so a backend that routes its arithmetic through
// them shares bit-exact semantics by construction. Each call picks one
// loop from its opcode, predicate and lane kind, then runs it over the
// lanes. Every lane is
// written on the success path, so the storage may be reused (e.g. a
// register's own words in a reused frame, rewritten each time its
// instruction executes) without stale data leaking between executions.

// IntBinInto applies an integer binary opcode lane-wise into out.
func IntBinInto(out Value, op ir.Op, a, b Value) *Trap { return intBinInto(out, op, a, b) }

// FloatBinInto applies a float binary opcode lane-wise into out.
func FloatBinInto(out Value, op ir.Op, a, b Value) { floatBinInto(out, op, a, b) }

// CompareInto applies an icmp/fcmp predicate lane-wise into out (i1 lanes).
func CompareInto(out Value, op ir.Op, pred ir.Pred, a, b Value) { compareInto(out, op, pred, a, b) }

// SelectInto applies select into out.
func SelectInto(out Value, c, t, f Value) { selectInto(out, c, t, f) }

// CastInto applies a cast opcode into out, producing type to.
func CastInto(out Value, op ir.Op, v Value, to *ir.Type) { castInto(out, op, v, to) }
