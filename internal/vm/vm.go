// Package vm is the compiled execution backend: it lowers verified SSA
// functions to a flat, pre-resolved bytecode form — operand slots and
// branch targets resolved at compile time, phi nodes eliminated into
// parallel moves on edges, and fused superinstructions for the hot
// digram patterns surfaced by the execution profiler (lane address
// computation + load/store, scalar mask test + branch), a guard per
// fault site's injection chain, and a guard per Figure 9 broadcast
// (insertelement into lane 0 of undef, then an all-zero shufflevector)
// — and executes that form as a dense dispatch loop over recycled
// register frames.
//
// The backend is attached to an interpreter through the interp.Engine
// hook and executes against the interpreter's own observable state, so
// the full tree-walker contract is preserved exactly: identical
// outcomes, identical DynInstrs/DynVector accounting (phis and
// terminators included), the identical budget-check schedule, identical
// trap kinds/messages/provenance, and an identical interp.Observer event
// stream. Injection semantics are inherited, not reimplemented: the
// instrumentation chain calls the injectFault* externs that the
// interpreter's extern table holds for the callee's function number
// (see interp.Interp.Extern), read at every call as the tree-walker
// reads it, so LaneSiteID attribution, dynamic site counting and bit
// flips behave byte-identically, and a registration takes effect on
// the next call. The one shortcut is the vSite guard the compiler puts
// in front of each fault site's chain: where no observer watches, every
// budget check that falls inside the chain would pass, and the bulk
// counter registered beside the extern (see interp.BulkCounter) agrees
// that every live lane's call would only count, the guard counts the
// live lanes in one step, runs those budget checks at their own counts,
// accounts the chain's instructions and jumps past it; otherwise the
// chain runs call by call. The vBcast guard in front of each
// broadcast pair follows the fused-pair rule (no observer, clear of a
// budget boundary) and then writes the scalar into every lane of the
// shuffle's register; otherwise the insert and the shuffle run as
// lowered.
//
// The compiler's input is a module ir.Verify accepts, and it lowers
// every function of it: while a Machine is attached, the interpreter
// tree-walks nothing, so a vm run executes bytecode only.
//
// The speedup comes from dispatch, not semantics: register frames that
// own their words replace the tree-walker's freshly allocated result
// per instruction, operands are fetched by precomputed slot index
// instead of interface type switches, branch
// targets are program-counter jumps, and all arithmetic routes through
// the interp package's exported operation kernels, which pick one lane
// loop per call, so the two backends cannot drift bit-wise.
//
// Registers own their storage: each value-producing register owns its
// lane words in a frame the Machine reuses call after call, and each
// opcode writes its result there in place, so a run allocates per
// frame, not per executed instruction. A register's words change only
// when its defining instruction executes again, or, for a phi, when its
// incoming edge is taken again; anything that must outlive that copies
// the words (edge moves, call results, Memory.Store, the returned value,
// and observers under the interp.Observer contract). One register can
// define two values: a fault-site chain whose value is an instruction
// or phi of the chain's own block, and read by the chain alone, gets
// that value's register for its result, so the chain also writes that
// register's words, and the guard's bulk path leaves them as they are.
//
// A Machine can also take snapshots of a run at the block heads with
// phis of the export function's own frame (see Recorder), resume a run
// from one (Machine.Resume), and stop a run where its state equals one
// (see Join); a snapshot saves only the registers live there.
package vm

import (
	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// Program is an immutable compiled module: one bytecode body per
// defined function. A Program is safe for concurrent use by any number
// of Machines (campaign cells compile once and share the program across
// their worker instances).
type Program struct {
	// mod is the module compiled; Attach accepts only its interpreters.
	mod *ir.Module
	// fns holds each function's body by ir.Func.Num, nil for a
	// declaration.
	fns []*fnCode

	// fused counts emitted superinstructions per kind (compile-time
	// statistics, surfaced for tests and reporting).
	fused map[string]int
}

// Compile lowers every defined function of mod, a module ir.Verify
// accepts. It does not verify mod again: codegen.Compile and a
// passes.Manager with Verify set check every module they hand on. A
// shape Compile cannot lower is a programming error, and it panics
// naming the function.
func Compile(mod *ir.Module) *Program {
	p := &Program{
		mod:   mod,
		fns:   make([]*fnCode, len(mod.Funcs)),
		fused: map[string]int{},
	}
	t := tablePool.Get().(*tables)
	for i, f := range mod.Funcs {
		if !f.IsDecl {
			p.fns[i] = compileFunc(f, p.fused, t)
		}
	}
	tablePool.Put(t) // a panicking compile drops it instead
	return p
}

// Fused returns the number of fused superinstructions emitted for the
// named pattern ("gep+load", "gep+store", "cmp+br"), or, for "site",
// the number of fault sites whose instrumentation got a vSite guard,
// and, for "bcast", the number of broadcast pairs that got a vBcast.
func (p *Program) Fused(pattern string) int { return p.fused[pattern] }

// Machine executes one Program against one interpreter instance. It
// implements interp.Engine and owns the frames its calls run in, so a
// Machine must not be shared between concurrently running interpreters
// — attach one Machine per instance (the Program behind it is shared
// freely).
type Machine struct {
	prog *Program

	// free holds each compiled function's idle frames, by
	// ir.Func.Num: a call pops one (a recursive call pops a second) and
	// pushes it back on return, so frames are built once per machine
	// and call depth.
	free [][]*frame

	// borrow is set by vCall around it.Call: the callee's return value
	// may then stay in its frame's words, because vCall copies it into
	// the destination register before any other frame runs.
	borrow bool

	// hook, when set, is the run's Recorder or Join (see SetRecorder
	// and SetJoin).
	hook pointHook
}

// frame is one activation's storage: each register's Value points at
// its own lane words for the frame's whole life (parameter slots alias
// the caller's values instead), and argv serves the frame's calls.
type frame struct {
	regs []interp.Value
	argv []interp.Value
}

func newFrame(code *fnCode) *frame {
	fr := &frame{
		regs: make([]interp.Value, len(code.regs)),
		argv: make([]interp.Value, code.maxArgs),
	}
	words := make([]uint64, code.nwords)
	for i, s := range code.regs {
		if s.lanes > 0 {
			fr.regs[i] = interp.Value{Ty: s.ty, Bits: words[:s.lanes:s.lanes]}
			words = words[s.lanes:]
		}
	}
	return fr
}

// Attach attaches a fresh Machine over prog to it, an interpreter of
// the module prog was compiled from: the machine finds a callee's body
// by its function number. A program of another module is a programming
// error, and Attach panics.
func Attach(it *interp.Interp, prog *Program) {
	if it.Mod != prog.mod {
		panic("vm: Attach: program compiled from another module")
	}
	it.SetEngine(&Machine{prog: prog, free: make([][]*frame, len(prog.fns))})
}
