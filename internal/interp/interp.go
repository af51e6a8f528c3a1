package interp

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"vulfi/internal/ir"
)

// ExternFn implements an external function (LLVM intrinsic or runtime API
// call). It receives the interpreter so it can touch memory and counters.
// It must not write the words of its arguments: they may be an IR
// constant's, a value other instructions read, or a vm register (see
// Value). It may return an argument unchanged.
type ExternFn func(it *Interp, args []Value) (Value, *Trap)

// Options configure an interpreter instance.
type Options struct {
	// Budget bounds the number of executed IR instructions; exceeding it
	// traps with TrapBudget (models a hung faulty run). 0 = 200M.
	Budget uint64
	// MemLimit bounds total allocation in bytes. 0 = 1 GiB.
	MemLimit uint64
	// MaxDepth bounds call nesting. 0 = 512.
	MaxDepth int
	// Observer, when non-nil, sees every accounted and retired
	// instruction of the run (see Observer).
	Observer Observer
	// Pulse, when non-nil, receives the current DynInstrs on every budget
	// check — after each phi block and every 1024th accounted instruction
	// — a liveness signal for watchdogs that stays off the per-instruction
	// path. Both backends share the schedule (the bytecode VM routes its
	// budget checks through CheckBudget). It runs on the executing
	// goroutine and must be cheap and non-blocking (an atomic store is the
	// intended shape).
	Pulse func(dynInstrs uint64)
}

// Interp executes functions of one module instance.
type Interp struct {
	Mod *ir.Module
	Mem *Memory

	// Output accumulates program output (the vspc print/out builtins);
	// campaigns compare it between golden and faulty runs.
	Output bytes.Buffer

	// DynInstrs counts executed IR instructions; DynVector the subset that
	// are vector instructions (≥1 vector operand).
	DynInstrs uint64
	DynVector uint64

	// Detections accumulates messages from synthesized error detectors
	// (the checkInvariants* runtime API). DetectionDyns records, parallel
	// to Detections, the dynamic-instruction index at which each detector
	// fired (the time-to-detection input for propagation tracing).
	Detections    []string
	DetectionDyns []uint64

	// externs is the extern table: one entry per function of Mod, by
	// ir.Func.Num (see Extern).
	externs  []Extern
	budget   uint64
	maxDepth int
	depth    int
	globals  map[*ir.Global]uint64
	// obs and pulse are the run's Options.Observer and Options.Pulse.
	obs   Observer
	pulse func(uint64)
	// engine, when attached, runs every defined function's body against
	// this interpreter's state; nil tree-walks everything. Like externs
	// it survives Reset (see SetEngine).
	engine Engine

	// frames and ops recycle call frames and operand buffers across
	// calls (and across Reset), so the steady state of a long campaign
	// allocates neither on the execution hot path.
	frames []*frame
	ops    [][]Value
}

// New creates an interpreter for mod, allocating storage for its
// globals. Its extern table has an entry for each function mod has now;
// a declaration's starts as its generic intrinsic or language builtin
// (see RegisterBuiltins), if it has one.
func New(mod *ir.Module, opts Options) (*Interp, error) {
	it := &Interp{
		Mod:     mod,
		Mem:     NewMemory(opts.MemLimit),
		externs: make([]Extern, len(mod.Funcs)),
		globals: map[*ir.Global]uint64{},
	}
	if tr := it.Reset(opts); tr != nil {
		return nil, tr
	}
	for i, f := range mod.Funcs {
		if f.IsDecl {
			it.externs[i].Fn = genericIntrinsic(f.Nam)
		}
	}
	RegisterBuiltins(it)
	return it, nil
}

// Reset returns the interpreter to its post-New state under new options,
// keeping registered externs, the attached engine and the recycling
// pools but dropping all execution state: output, counters, detections,
// call depth and the entire memory image. The observer and pulse become
// opts.Observer and opts.Pulse, so one Options value configures a whole
// run. Globals are reallocated in module order on the recycled memory,
// so they land at exactly the addresses a fresh interpreter would use —
// a deterministic program behaves identically on a reset and on a fresh
// instance.
// Campaign hot paths reset-and-reuse instances instead of rebuilding
// every frame, buffer and segment per experiment.
func (it *Interp) Reset(opts Options) *Trap {
	if opts.Budget == 0 {
		opts.Budget = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 512
	}
	it.Mem.Reset(opts.MemLimit)
	it.Output.Reset()
	it.DynInstrs, it.DynVector = 0, 0
	it.Detections = it.Detections[:0]
	it.DetectionDyns = it.DetectionDyns[:0]
	it.budget = opts.Budget
	it.maxDepth = opts.MaxDepth
	it.depth = 0
	it.obs = opts.Observer
	it.pulse = opts.Pulse
	clear(it.globals)
	for _, g := range it.Mod.Globals {
		addr, tr := it.Mem.Alloc(uint64(g.Elem.ByteSize() * g.Count))
		if tr != nil {
			return tr
		}
		it.globals[g] = addr
	}
	return nil
}

// Extern is a function's entry in an interpreter's extern table: what
// a call of the declaration runs, and the bulk counter registered beside
// it (see BulkCounter). Fn is nil for a defined function and for a
// declaration nothing implements.
type Extern struct {
	Fn   ExternFn
	Bulk BulkCounter
}

// Extern returns f's entry in the extern table, and false when the table
// has none: f is another module's function, or was added to the module
// after New. Registration overwrites entries in place, so a caller
// reads the entry at each call rather than keeping it.
func (it *Interp) Extern(f *ir.Func) (Extern, bool) {
	if n := f.Num(); it.Mod.Has(f) && n < len(it.externs) {
		return it.externs[n], true
	}
	return Extern{}, false
}

// ExternAt returns the extern table's entry for function number n, and
// the zero entry when the table has none. Unlike Extern it does not
// check that the module's function n is the callee: a caller that has
// shown that already (an engine running a verified module's program)
// reads the table by number.
func (it *Interp) ExternAt(n int) Extern {
	if n < len(it.externs) {
		return it.externs[n]
	}
	return Extern{}
}

// RegisterExtern installs (or replaces) the implementation of the
// module's declaration called name. It drops any bulk counter
// registered beside the old one. A name the module does not declare
// has no entry, so registering it changes nothing.
func (it *Interp) RegisterExtern(name string, fn ExternFn) {
	if e := it.entry(name); e != nil {
		*e = Extern{Fn: fn}
	}
}

// BulkCounter stands in for n consecutive calls of the extern it is
// registered beside, each with a nonzero second (active) argument, when
// every one of those calls would return its first argument and only
// count: it then counts all n and returns true. Otherwise it changes
// nothing and returns false, and the caller makes the calls one by one.
// The tree-walker never calls it; an engine may, where it can show that
// nothing else observes the calls (see Engine).
type BulkCounter func(n uint64) bool

// RegisterBulkCounter registers fn beside the extern called name, until
// that extern is registered again.
func (it *Interp) RegisterBulkCounter(name string, fn BulkCounter) {
	if e := it.entry(name); e != nil {
		e.Bulk = fn
	}
}

// entry returns the extern table's entry for the declaration called
// name, or nil when the table has none.
func (it *Interp) entry(name string) *Extern {
	if f := it.Mod.Func(name); f != nil && f.IsDecl && f.Num() < len(it.externs) {
		return &it.externs[f.Num()]
	}
	return nil
}

// GlobalAddr returns the base address of a module global.
func (it *Interp) GlobalAddr(g *ir.Global) uint64 { return it.globals[g] }

// Run executes the named function with args and returns its result.
func (it *Interp) Run(name string, args ...Value) (Value, *Trap) {
	f := it.Mod.Func(name)
	if f == nil {
		return Value{}, trapf(TrapHalt, "no such function @%s", name)
	}
	return it.Call(f, args)
}

// Call executes f with args. A result returned to Go code (the
// outermost call of a run) is the caller's to keep and write; a nested
// call's result obeys Value's rule.
func (it *Interp) Call(f *ir.Func, args []Value) (Value, *Trap) {
	e, ok := it.Extern(f)
	if !ok || f.IsDecl && e.Fn == nil {
		return Value{}, trapf(TrapHalt, "unresolved external @%s", f.Nam)
	}
	if f.IsDecl {
		return e.Fn(it, args)
	}
	if it.depth++; it.depth > it.maxDepth {
		it.depth--
		return Value{}, trapf(TrapStack, "call depth %d at @%s", it.depth, f.Nam)
	}
	var fr *frame
	defer func() {
		it.depth--
		if fr != nil {
			it.putFrame(fr)
		}
	}()

	if len(args) != len(f.Params) {
		return Value{}, trapf(TrapHalt, "@%s: got %d args, want %d",
			f.Nam, len(args), len(f.Params))
	}
	if it.engine != nil {
		return it.engine.CallCompiled(it, f, args)
	}
	fr = it.getFrame(f, args)

	cur := f.Entry()
	var prev *ir.Block
	for {
		// Evaluate phis as a parallel copy.
		phis := cur.Phis()
		if len(phis) > 0 {
			tmp := it.getOps(len(phis))
			for i, phi := range phis {
				v, tr := it.phiIncoming(fr, phi, prev)
				if tr != nil {
					it.putOps(tmp)
					return Value{}, it.locate(tr, phi)
				}
				tmp[i] = v
			}
			for i, phi := range phis {
				fr.vals[phi.Slot()] = tmp[i]
				it.account(phi)
				if it.obs != nil {
					it.obs.Retire(phi, it.DynInstrs, tmp[i])
				}
			}
			it.putOps(tmp)
			if tr := it.checkBudget(); tr != nil {
				return Value{}, it.locate(tr, phis[0])
			}
		}

		for _, in := range cur.Instrs[len(phis):] {
			it.account(in)
			if it.DynInstrs&1023 == 0 {
				if tr := it.checkBudget(); tr != nil {
					return Value{}, it.locate(tr, in)
				}
			}
			switch in.Op {
			case ir.OpBr:
				prev, cur = cur, in.Succs[0]
				goto nextBlock
			case ir.OpCondBr:
				c, tr := it.eval(fr, in.Operand(0))
				if tr != nil {
					return Value{}, it.locate(tr, in)
				}
				if c.Bool() {
					prev, cur = cur, in.Succs[0]
				} else {
					prev, cur = cur, in.Succs[1]
				}
				goto nextBlock
			case ir.OpRet:
				if in.NumOperands() == 0 {
					return Value{}, nil
				}
				v, tr := it.eval(fr, in.Operand(0))
				if tr == nil && it.depth == 1 {
					// The one value that leaves for Go code, which may
					// write it: its words may be an IR constant's.
					v = v.Clone()
				}
				return v, it.locate(tr, in)
			case ir.OpUnreachable:
				return Value{}, it.locate(trapf(TrapHalt, "reached unreachable in @%s", f.Nam), in)
			default:
				v, tr := it.execInstr(fr, in)
				if tr != nil {
					return Value{}, it.locate(tr, in)
				}
				if !in.Ty.IsVoid() {
					fr.vals[in.Slot()] = v
				}
				if it.obs != nil {
					it.obs.Retire(in, it.DynInstrs, v)
				}
			}
		}
		return Value{}, trapf(TrapHalt, "block %s fell through", cur.Nam)
	nextBlock:
	}
}

// frame is one activation's storage. vals holds each instruction's
// result at its slot (ir.Instr.Slot), one entry per slot of the
// function: ir.Verify checks that every instruction of a function has
// a slot below its NumSlots. A zero Value (Ty == nil) marks a slot not
// yet defined in this activation.
type frame struct {
	vals   []Value
	params []Value
}

// getFrame pops a recycled call frame (or builds one) with a slot for
// each of f's instructions and args copied into its params. Every
// pooled frame holds zero Values up to its capacity (putFrame clears
// what a call wrote), so a frame last used by a larger or smaller
// function starts empty.
func (it *Interp) getFrame(f *ir.Func, args []Value) *frame {
	var fr *frame
	if n := len(it.frames); n > 0 {
		fr = it.frames[n-1]
		it.frames[n-1] = nil
		it.frames = it.frames[:n-1]
	} else {
		fr = &frame{}
	}
	if n := f.NumSlots(); cap(fr.vals) >= n {
		fr.vals = fr.vals[:n]
	} else {
		fr.vals = make([]Value, n)
	}
	fr.params = append(fr.params[:0], args...)
	return fr
}

// putFrame drops a frame's value references and returns it to the pool.
func (it *Interp) putFrame(fr *frame) {
	clear(fr.vals)
	for i := range fr.params {
		fr.params[i] = Value{}
	}
	fr.params = fr.params[:0]
	it.frames = append(it.frames, fr)
}

// getOps pops a recycled operand buffer of length n. The buffers are
// scratch for one instruction: every execInstr path must return them
// with putOps once the result value has been built (results never alias
// the buffer itself, only the Bits payloads of live values).
func (it *Interp) getOps(n int) []Value {
	if m := len(it.ops); m > 0 {
		buf := it.ops[m-1]
		it.ops[m-1] = nil
		it.ops = it.ops[:m-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	if n < 4 {
		return make([]Value, n, 4)
	}
	return make([]Value, n)
}

// putOps drops the buffer's value references and returns it to the pool.
func (it *Interp) putOps(ops []Value) {
	for i := range ops {
		ops[i] = Value{}
	}
	it.ops = append(it.ops, ops[:0])
}

// locate stamps tr with the provenance of the instruction that was
// retiring when it fired. The innermost frame wins: once Func is set,
// outer frames unwinding the same trap leave it untouched.
func (it *Interp) locate(tr *Trap, in *ir.Instr) *Trap {
	if tr == nil || tr.Func != "" || in == nil || in.Parent == nil {
		return tr
	}
	tr.Func = in.Parent.Func.Nam
	tr.Block = in.Parent.Nam
	tr.Instr = in.String()
	tr.Dyn = it.DynInstrs
	return tr
}

// Detect records a detector firing, stamped with the current dynamic
// instruction count. Detector runtimes must use this rather than append
// to Detections directly so propagation tracing can compute
// time-to-detection.
func (it *Interp) Detect(msg string) {
	it.Detections = append(it.Detections, msg)
	it.DetectionDyns = append(it.DetectionDyns, it.DynInstrs)
}

func (it *Interp) account(in *ir.Instr) {
	it.DynInstrs++
	if in.IsVectorInstr() {
		it.DynVector++
	}
	if it.obs != nil {
		it.obs.Account(in)
	}
}

func (it *Interp) checkBudget() *Trap {
	if it.pulse != nil {
		it.pulse(it.DynInstrs)
	}
	if it.DynInstrs > it.budget {
		return trapf(TrapBudget, "executed %d instructions", it.DynInstrs)
	}
	return nil
}

func (it *Interp) phiIncoming(fr *frame, phi *ir.Instr, prev *ir.Block) (Value, *Trap) {
	for i, b := range phi.Succs {
		if b == prev {
			return it.eval(fr, phi.Operand(i))
		}
	}
	return Value{}, trapf(TrapHalt, "phi %%%s: no incoming for block %v", phi.Nam, prev)
}

// eval resolves an operand to its runtime value. A constant's value is
// the constant's own words, read in place: no path writes a Value's
// words once it is produced (see Value).
func (it *Interp) eval(fr *frame, v ir.Value) (Value, *Trap) {
	switch x := v.(type) {
	case *ir.Instr:
		if s := x.Slot(); uint(s) < uint(len(fr.vals)) && fr.vals[s].Ty != nil {
			return fr.vals[s], nil
		}
		return Value{}, trapf(TrapHalt, "use of undefined value %%%s", x.Nam)
	case *ir.Const:
		return Value{Ty: x.Ty, Bits: x.Bits}, nil
	case *ir.Param:
		return fr.params[x.Index], nil
	case *ir.Global:
		return PtrValue(x.Type(), it.globals[x]), nil
	}
	return Value{}, trapf(TrapHalt, "unsupported operand %T", v)
}

func (it *Interp) evalN(fr *frame, in *ir.Instr) ([]Value, *Trap) {
	out := it.getOps(in.NumOperands())
	for i := 0; i < in.NumOperands(); i++ {
		v, tr := it.eval(fr, in.Operand(i))
		if tr != nil {
			it.putOps(out)
			return nil, tr
		}
		out[i] = v
	}
	return out, nil
}

// evalTo resolves in's first len(ops) operands into ops, for the
// fixed-arity opcodes, whose operands fit a stack array.
func (it *Interp) evalTo(fr *frame, in *ir.Instr, ops []Value) *Trap {
	for i := range ops {
		v, tr := it.eval(fr, in.Operand(i))
		if tr != nil {
			return tr
		}
		ops[i] = v
	}
	return nil
}

func (it *Interp) execInstr(fr *frame, in *ir.Instr) (Value, *Trap) {
	var buf [3]Value
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv,
		ir.OpURem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		return intBin(in.Op, ops[0], ops[1])
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFRem:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		return floatBin(in.Op, ops[0], ops[1]), nil
	case ir.OpICmp, ir.OpFCmp:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		return compare(in.Op, in.Pred, ops[0], ops[1]), nil
	case ir.OpSelect:
		ops := buf[:3]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		return selectVal(ops[0], ops[1], ops[2]), nil
	case ir.OpAlloca:
		addr, tr := it.Mem.Alloc(uint64(in.AllocElem.ByteSize() * in.AllocCount))
		if tr != nil {
			return Value{}, tr
		}
		return PtrValue(in.Ty, addr), nil
	case ir.OpLoad:
		p, tr := it.eval(fr, in.Operand(0))
		if tr != nil {
			return Value{}, tr
		}
		return it.Mem.Load(in.Ty, p.Uint())
	case ir.OpStore:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		return Value{}, it.Mem.Store(ops[0], ops[1].Uint())
	case ir.OpGEP:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		elem := in.Ty.Elem
		addr := ops[0].Uint() + uint64(ops[1].Int())*uint64(elem.ByteSize())
		return PtrValue(in.Ty, addr), nil
	case ir.OpExtractElement:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		idx := int(ops[1].Int())
		if idx < 0 || idx >= len(ops[0].Bits) {
			return Value{}, trapf(TrapBadIndex, "extractelement lane %d of %d",
				idx, len(ops[0].Bits))
		}
		return Scalar(in.Ty, ops[0].Bits[idx]), nil
	case ir.OpInsertElement:
		ops := buf[:3]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		idx := int(ops[2].Int())
		if idx < 0 || idx >= len(ops[0].Bits) {
			return Value{}, trapf(TrapBadIndex, "insertelement lane %d of %d",
				idx, len(ops[0].Bits))
		}
		out := ops[0].Clone()
		out.Bits[idx] = ops[1].Bits[0]
		return out, nil
	case ir.OpShuffleVector:
		ops := buf[:2]
		if tr := it.evalTo(fr, in, ops); tr != nil {
			return Value{}, tr
		}
		n := ops[0].Lanes()
		out := Zero(in.Ty)
		for i, mi := range in.ShuffleMask {
			switch {
			case mi < 0:
				out.Bits[i] = 0 // undef lane
			case mi < n:
				out.Bits[i] = ops[0].Bits[mi]
			default:
				out.Bits[i] = ops[1].Bits[mi-n]
			}
		}
		return out, nil
	case ir.OpPhi:
		return Value{}, trapf(TrapHalt, "phi executed outside block entry")
	case ir.OpCall:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v, tr := it.Call(in.Callee, ops)
		it.putOps(ops)
		return v, tr
	default:
		if in.Op.IsCast() {
			v, tr := it.eval(fr, in.Operand(0))
			if tr != nil {
				return Value{}, tr
			}
			return castVal(in.Op, v, in.Ty), nil
		}
		return Value{}, trapf(TrapHalt, "unimplemented opcode %s", in.Op)
	}
}

func intBin(op ir.Op, a, b Value) (Value, *Trap) {
	out := Zero(a.Ty)
	if tr := intBinInto(out, op, a, b); tr != nil {
		return Value{}, tr
	}
	return out, nil
}

// The lane kernels below (intBinInto, floatBinInto, compareInto,
// castInto) pick their loop once per call, from the opcode, predicate
// and lane kind, and each loop computes one lane expression over every
// lane in order. Lane words are read as stored: integer operands are
// sign-extended from their width where a signed operation needs it, and
// f32 lanes widen to float64, compute there and round once to float32.

// f32 widens an f32 lane word to float64, f64 reads an f64 lane word,
// and f32bits rounds f to an f32 lane word.
func f32(w uint64) float64     { return float64(math.Float32frombits(uint32(w))) }
func f64(w uint64) float64     { return math.Float64frombits(w) }
func f32bits(f float64) uint64 { return uint64(math.Float32bits(float32(f))) }

// fadd and fmul return x+y and x*y with x86's NaN rule spelled out: a
// NaN result takes the first NaN operand, quieted. x86 arithmetic
// follows that rule, but Go leaves the operand order of a commutative
// operation to the compiler, so the payload of a sum or product of two
// NaNs would otherwise depend on code generation.
func fadd(x, y float64) float64 {
	r := x + y
	if r != r {
		return firstNaN(x, y, r)
	}
	return r
}

func fmul(x, y float64) float64 {
	r := x * y
	if r != r {
		return firstNaN(x, y, r)
	}
	return r
}

// firstNaN returns the first of x and y that is NaN, quieted, or r when
// neither is.
func firstNaN(x, y, r float64) float64 {
	const quiet = 1 << 51
	switch {
	case x != x:
		return math.Float64frombits(math.Float64bits(x) | quiet)
	case y != y:
		return math.Float64frombits(math.Float64bits(y) | quiet)
	}
	return r
}

// b2u returns 1 for true and 0 for false: an i1 lane word.
func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// intBinInto computes a lane-wise integer binary op into out, whose
// Bits must already hold one word per lane. Every lane is written (no
// stale data survives), so out may come from recycled storage; a trap
// stops at the first trapping lane, with the lanes before it written.
func intBinInto(out Value, op ir.Op, a, b Value) *Trap {
	bits := a.Ty.ScalarBits()
	x := a.Bits
	y, o := b.Bits[:len(x)], out.Bits[:len(x)]
	// m is the width's mask; sh sign-extends a lane from its width:
	// int64(w<<sh)>>sh equals ir.SignExtend(w, bits). Integer widths are
	// powers of two, so a shift count modulo the width is the count
	// masked by cm.
	m := ir.TruncateToWidth(^uint64(0), bits)
	sh, cm := uint(64-bits), uint64(bits-1)
	switch op {
	case ir.OpAdd:
		for i := range o {
			o[i] = (x[i] + y[i]) & m
		}
	case ir.OpSub:
		for i := range o {
			o[i] = (x[i] - y[i]) & m
		}
	case ir.OpMul:
		for i := range o {
			o[i] = (x[i] * y[i]) & m
		}
	case ir.OpSDiv:
		lo := minIntFor(bits)
		for i := range o {
			sx, sy := int64(x[i]<<sh)>>sh, int64(y[i]<<sh)>>sh
			if sy == 0 || sx == lo && sy == -1 {
				return sdivTrap(op, sx, sy)
			}
			o[i] = uint64(sx/sy) & m
		}
	case ir.OpSRem:
		lo := minIntFor(bits)
		for i := range o {
			sx, sy := int64(x[i]<<sh)>>sh, int64(y[i]<<sh)>>sh
			if sy == 0 || sx == lo && sy == -1 {
				return sdivTrap(op, sx, sy)
			}
			o[i] = uint64(sx%sy) & m
		}
	case ir.OpUDiv:
		for i := range o {
			if y[i] == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			o[i] = (x[i] / y[i]) & m
		}
	case ir.OpURem:
		for i := range o {
			if y[i] == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			o[i] = (x[i] % y[i]) & m
		}
	case ir.OpAnd:
		for i := range o {
			o[i] = (x[i] & y[i]) & m
		}
	case ir.OpOr:
		for i := range o {
			o[i] = (x[i] | y[i]) & m
		}
	case ir.OpXor:
		for i := range o {
			o[i] = (x[i] ^ y[i]) & m
		}
	case ir.OpShl:
		for i := range o {
			o[i] = (x[i] << (y[i] & cm)) & m
		}
	case ir.OpLShr:
		for i := range o {
			o[i] = (x[i] >> (y[i] & cm)) & m
		}
	case ir.OpAShr:
		for i := range o {
			o[i] = uint64((int64(x[i]<<sh)>>sh)>>(y[i]&cm)) & m
		}
	default:
		clear(o)
	}
	return nil
}

// sdivTrap is the x86 fault of a signed division lane: a zero divisor,
// or the width's minimum divided by -1.
func sdivTrap(op ir.Op, sx, sy int64) *Trap {
	if sy == 0 {
		return trapf(TrapDivZero, "%s by zero", op)
	}
	return trapf(TrapDivOverflow, "%d %s -1", sx, op)
}

func minIntFor(bits int) int64 {
	if bits >= 64 {
		return math.MinInt64
	}
	return -(1 << uint(bits-1))
}

func floatBin(op ir.Op, a, b Value) Value {
	out := Zero(a.Ty)
	floatBinInto(out, op, a, b)
	return out
}

// floatBinInto computes a lane-wise float binary op into out; every
// lane is written. Division never traps (IEEE: ±Inf or NaN).
func floatBinInto(out Value, op ir.Op, a, b Value) {
	x := a.Bits
	y, o := b.Bits[:len(x)], out.Bits[:len(x)]
	if a.Ty.Scalar() == ir.F32 {
		switch op {
		case ir.OpFAdd:
			for i := range o {
				o[i] = f32bits(fadd(f32(x[i]), f32(y[i])))
			}
		case ir.OpFSub:
			for i := range o {
				o[i] = f32bits(f32(x[i]) - f32(y[i]))
			}
		case ir.OpFMul:
			for i := range o {
				o[i] = f32bits(fmul(f32(x[i]), f32(y[i])))
			}
		case ir.OpFDiv:
			for i := range o {
				o[i] = f32bits(f32(x[i]) / f32(y[i]))
			}
		case ir.OpFRem:
			for i := range o {
				o[i] = f32bits(math.Mod(f32(x[i]), f32(y[i])))
			}
		default:
			clear(o)
		}
		return
	}
	switch op {
	case ir.OpFAdd:
		for i := range o {
			o[i] = math.Float64bits(fadd(f64(x[i]), f64(y[i])))
		}
	case ir.OpFSub:
		for i := range o {
			o[i] = math.Float64bits(f64(x[i]) - f64(y[i]))
		}
	case ir.OpFMul:
		for i := range o {
			o[i] = math.Float64bits(fmul(f64(x[i]), f64(y[i])))
		}
	case ir.OpFDiv:
		for i := range o {
			o[i] = math.Float64bits(f64(x[i]) / f64(y[i]))
		}
	case ir.OpFRem:
		for i := range o {
			o[i] = math.Float64bits(math.Mod(f64(x[i]), f64(y[i])))
		}
	default:
		clear(o)
	}
}

func compare(op ir.Op, pred ir.Pred, a, b Value) Value {
	n := a.Lanes()
	var ty *ir.Type = ir.I1
	if a.Ty.IsVector() {
		ty = ir.Vec(ir.I1, n)
	}
	out := Zero(ty)
	compareInto(out, op, pred, a, b)
	return out
}

// compareInto computes a lane-wise icmp/fcmp into out (i1 lanes); every
// lane is written. A predicate of the other comparison's family holds
// on no lane.
func compareInto(out Value, op ir.Op, pred ir.Pred, a, b Value) {
	x := a.Bits
	y, o := b.Bits[:len(x)], out.Bits[:len(x)]
	if op == ir.OpICmp {
		sh := uint(64 - a.Ty.ScalarBits())
		switch pred {
		case ir.IntEQ:
			for i := range o {
				o[i] = b2u(x[i] == y[i])
			}
		case ir.IntNE:
			for i := range o {
				o[i] = b2u(x[i] != y[i])
			}
		case ir.IntSLT:
			for i := range o {
				o[i] = b2u(int64(x[i]<<sh)>>sh < int64(y[i]<<sh)>>sh)
			}
		case ir.IntSLE:
			for i := range o {
				o[i] = b2u(int64(x[i]<<sh)>>sh <= int64(y[i]<<sh)>>sh)
			}
		case ir.IntSGT:
			for i := range o {
				o[i] = b2u(int64(x[i]<<sh)>>sh > int64(y[i]<<sh)>>sh)
			}
		case ir.IntSGE:
			for i := range o {
				o[i] = b2u(int64(x[i]<<sh)>>sh >= int64(y[i]<<sh)>>sh)
			}
		case ir.IntULT:
			for i := range o {
				o[i] = b2u(x[i] < y[i])
			}
		case ir.IntULE:
			for i := range o {
				o[i] = b2u(x[i] <= y[i])
			}
		case ir.IntUGT:
			for i := range o {
				o[i] = b2u(x[i] > y[i])
			}
		case ir.IntUGE:
			for i := range o {
				o[i] = b2u(x[i] >= y[i])
			}
		default:
			clear(o)
		}
		return
	}
	if a.Ty.Scalar() == ir.F32 {
		switch pred {
		case ir.FloatOEQ:
			for i := range o {
				o[i] = b2u(f32(x[i]) == f32(y[i]))
			}
		case ir.FloatONE:
			for i := range o {
				p, q := f32(x[i]), f32(y[i])
				o[i] = b2u(p != q && !math.IsNaN(p) && !math.IsNaN(q))
			}
		case ir.FloatUNE:
			for i := range o {
				o[i] = b2u(f32(x[i]) != f32(y[i]))
			}
		case ir.FloatOLT:
			for i := range o {
				o[i] = b2u(f32(x[i]) < f32(y[i]))
			}
		case ir.FloatOLE:
			for i := range o {
				o[i] = b2u(f32(x[i]) <= f32(y[i]))
			}
		case ir.FloatOGT:
			for i := range o {
				o[i] = b2u(f32(x[i]) > f32(y[i]))
			}
		case ir.FloatOGE:
			for i := range o {
				o[i] = b2u(f32(x[i]) >= f32(y[i]))
			}
		default:
			clear(o)
		}
		return
	}
	switch pred {
	case ir.FloatOEQ:
		for i := range o {
			o[i] = b2u(f64(x[i]) == f64(y[i]))
		}
	case ir.FloatONE:
		for i := range o {
			p, q := f64(x[i]), f64(y[i])
			o[i] = b2u(p != q && !math.IsNaN(p) && !math.IsNaN(q))
		}
	case ir.FloatUNE:
		for i := range o {
			o[i] = b2u(f64(x[i]) != f64(y[i]))
		}
	case ir.FloatOLT:
		for i := range o {
			o[i] = b2u(f64(x[i]) < f64(y[i]))
		}
	case ir.FloatOLE:
		for i := range o {
			o[i] = b2u(f64(x[i]) <= f64(y[i]))
		}
	case ir.FloatOGT:
		for i := range o {
			o[i] = b2u(f64(x[i]) > f64(y[i]))
		}
	case ir.FloatOGE:
		for i := range o {
			o[i] = b2u(f64(x[i]) >= f64(y[i]))
		}
	default:
		clear(o)
	}
}

func selectVal(c, t, f Value) Value {
	if c.Ty == ir.I1 {
		if c.Bool() {
			return t.Clone()
		}
		return f.Clone()
	}
	out := Zero(t.Ty)
	selectInto(out, c, t, f)
	return out
}

// selectInto computes select into out (scalar condition copies the
// chosen side; vector condition blends lane-wise); every lane is
// written.
func selectInto(out Value, c, t, f Value) {
	if c.Ty == ir.I1 {
		if c.Bool() {
			copy(out.Bits, t.Bits)
		} else {
			copy(out.Bits, f.Bits)
		}
		return
	}
	for i := range out.Bits {
		if c.Bits[i]&1 != 0 {
			out.Bits[i] = t.Bits[i]
		} else {
			out.Bits[i] = f.Bits[i]
		}
	}
}

func castVal(op ir.Op, v Value, to *ir.Type) Value {
	out := Zero(to)
	castInto(out, op, v, to)
	return out
}

// castInto computes a cast into out; every lane is written.
func castInto(out Value, op ir.Op, v Value, to *ir.Type) {
	fromS, toS := v.Ty.Scalar(), to.Scalar()
	x := v.Bits
	o := out.Bits[:len(x)]
	switch op {
	case ir.OpTrunc:
		m := ir.TruncateToWidth(^uint64(0), toS.Bits)
		for i := range o {
			o[i] = x[i] & m
		}
	case ir.OpZExt:
		copy(o, x)
	case ir.OpSExt:
		sh, m := uint(64-fromS.Bits), ir.TruncateToWidth(^uint64(0), toS.Bits)
		for i := range o {
			o[i] = uint64(int64(x[i]<<sh)>>sh) & m
		}
	case ir.OpFPTrunc:
		for i := range o {
			o[i] = f32bits(f64(x[i]))
		}
	case ir.OpFPExt:
		for i := range o {
			o[i] = math.Float64bits(f32(x[i]))
		}
	case ir.OpSIToFP:
		sh := uint(64 - fromS.Bits)
		if toS == ir.F32 {
			for i := range o {
				o[i] = f32bits(float64(int64(x[i]<<sh) >> sh))
			}
		} else {
			for i := range o {
				o[i] = math.Float64bits(float64(int64(x[i]<<sh) >> sh))
			}
		}
	case ir.OpFPToSI:
		m := ir.TruncateToWidth(^uint64(0), toS.Bits)
		switch {
		case fromS == ir.F32 && toS.Bits > 32:
			for i := range o {
				o[i] = cvtt64(f32(x[i]))
			}
		case fromS == ir.F32:
			for i := range o {
				o[i] = cvtt32(f32(x[i])) & m
			}
		case toS.Bits > 32:
			for i := range o {
				o[i] = cvtt64(f64(x[i]))
			}
		default:
			for i := range o {
				o[i] = cvtt32(f64(x[i])) & m
			}
		}
	case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		m := ir.TruncateToWidth(^uint64(0), toS.ScalarBits())
		for i := range o {
			o[i] = x[i] & m
		}
	}
}

// cvtt64 and cvtt32 convert f toward zero like x86's cvttsd2si with a
// 64-bit and a 32-bit destination: NaN, or a value whose truncation
// falls outside the destination, gives the "integer indefinite" value,
// the destination's minimum. fptosi to i64 uses the 64-bit form; to i32
// and narrower the 32-bit form, whose result is then truncated.
func cvtt64(f float64) uint64 {
	if f >= -0x1p63 && f < 0x1p63 {
		return uint64(int64(f))
	}
	return 1 << 63
}

func cvtt32(f float64) uint64 {
	if f > -0x1p31-1 && f < 0x1p31 {
		return uint64(int64(f))
	}
	return 0xffff_ffff_8000_0000 // int64(math.MinInt32)
}

// DumpState formats a deterministic execution summary: the headline
// counters on the first line, then one line per module global sorted by
// name with its address and leading memory contents. Two interpreters
// that executed identically produce byte-identical dumps, so trace-diff
// tests can compare them directly.
func (it *Interp) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dyn=%d vec=%d depth=%d segments=%d out=%dB detections=%d\n",
		it.DynInstrs, it.DynVector, it.depth, it.Mem.Allocated(),
		it.Output.Len(), len(it.Detections))

	globals := make([]*ir.Global, 0, len(it.globals))
	for g := range it.globals {
		globals = append(globals, g)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Nam < globals[j].Nam })

	const maxDump = 64 // bytes of contents shown per global
	for _, g := range globals {
		addr := it.globals[g]
		size := uint64(g.Elem.ByteSize() * g.Count)
		fmt.Fprintf(&b, "global @%s %s x%d @%#x = ", g.Nam, g.Elem, g.Count, addr)
		n := size
		if n > maxDump {
			n = maxDump
		}
		if data, tr := it.Mem.ReadBytes(addr, n); tr == nil {
			fmt.Fprintf(&b, "%x", data)
		} else {
			b.WriteString("<unreadable>")
		}
		if size > maxDump {
			fmt.Fprintf(&b, "... (%d bytes)", size)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
