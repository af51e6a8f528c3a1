package vm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// vop enumerates bytecode opcodes. The lowered form trades the
// tree-walker's per-instruction interface dispatch for a dense switch:
// generic opcodes carry the original ir.Op and route through the interp
// package's exported operation kernels, fused opcodes execute a whole
// profiler digram in one dispatch.
type vop uint8

const (
	vInvalid vop = iota
	vIntBin
	vFloatBin
	vCmp
	vSelect
	vCast
	vAlloca
	vLoad
	vStore
	vGEP
	vExtract
	vInsert
	vShuffle
	vCall
	vBr
	vCondBr
	vRet
	vRetVoid
	vUnreachable
	// vPhiGroup accounts a block's phi nodes. The parallel copy itself
	// has already happened on the incoming edge (vBr/vCondBr move
	// bundles); this opcode replays the tree-walker's observable phi
	// schedule: per-phi DynInstrs accounting and Retire in block order,
	// then one unconditional budget check located at the first phi. It is
	// also the only point where a Recorder takes snapshots.
	vPhiGroup
	// Fused superinstructions (see fusion in lower).
	vGEPLoad  // gep + load  : dst = mem[base + idx*elem]
	vGEPStore // gep + store : mem[base + idx*elem] = value
	vCmpBr    // scalar cmp + condbr : branch on compare without a visit
	// vSite guards one fault site's instrumentation chain, lowered
	// unchanged right after it (see lowerSite): when nothing could tell,
	// it does the whole chain's work in one step and jumps past it;
	// otherwise it falls through, and the chain runs as lowered.
	vSite
	// vBcast guards a Figure 9 broadcast pair, the insert and the
	// shuffle lowered unchanged right after it (see lowerBcast): under
	// the fused-pair rule it writes the scalar into every lane of the
	// shuffle's register and jumps past the pair; otherwise it falls
	// through to the pair.
	vBcast
)

// A move copies one value's lane words into a phi's register: the
// phi-elimination parallel copy, sequenced at compile time (lost-copy
// and swap safe — cycles are broken by parking one value in the
// function's scratch register). src is an operand ref. Copying rather
// than sharing keeps a phi's words unchanged until its edge is taken
// again, whatever re-executes its source.
type move struct {
	dst int32
	src int32
}

// phiSlot is one phi of a vPhiGroup: the original instruction for
// accounting/retire, its register, and its precomputed vector flag.
type phiSlot struct {
	in  *ir.Instr
	reg int32
	vec bool
}

// vinstr is one lowered instruction. Operand refs (a, b, c, args,
// move.src) address the register frame when >= 0 and the constant pool
// when negative (ref < 0 denotes consts[^ref]).
type vinstr struct {
	op   vop
	irop ir.Op
	pred ir.Pred

	dst     int32 // result register; -1 when void
	a, b, c int32 // operand refs

	elem uint64 // gep element byte size; alloca total bytes
	// idxSh sign-extends the statically-typed index operand (gep index,
	// extract/insert lane) without re-deriving its scalar width per
	// execution: int64(bits<<idxSh)>>idxSh == ir.SignExtend(bits, w).
	idxSh uint8

	in  *ir.Instr // original instruction: accounting, traps, trace, retire
	vec bool      // precomputed in.IsVectorInstr()

	// Fused second constituent.
	in2  *ir.Instr
	vec2 bool

	// Branch targets (bytecode pcs) and their edge move bundles.
	t0, t1 int32
	m0, m1 []move

	phis []phiSlot

	callee *ir.Func
	args   []int32
	// decl marks a call of one of the module's declarations, which reads
	// the callee's extern table entry by number.
	decl bool

	mask []int

	site *siteChain
}

// siteChain is what a vSite guard knows of the chain it fronts: the
// chain's instruction and vector-instruction counts, its lane count,
// and whether an execution mask decides which lanes are live (then a
// lane is live when bit signBit of its mask lane is set, the sign the
// chain's icmp slt tests).
type siteChain struct {
	n, nvec uint64
	lanes   uint64
	masked  bool
	signBit uint8
}

// fnCode is one compiled function body.
type fnCode struct {
	fn *ir.Func

	// regs lays out one frame: parameters own no words (they alias the
	// caller's values and are only read), every other register owns
	// Lanes(ty) words. nwords is their sum, maxArgs the widest call's
	// argument count.
	regs    []regSlot
	nwords  int
	maxArgs int

	consts  []interp.Value
	globals []globalSlot
	code    []vinstr

	// live maps the pc of each vPhiGroup to the registers live at its
	// block's head, ascending: the block's live-in set plus its phis,
	// parameters and globals excluded. A snapshot taken there saves
	// exactly these (see liveAtPhis).
	live map[int32][]int32
}

// regSlot is one register's frame storage.
type regSlot struct {
	ty    *ir.Type
	lanes int
}

// globalSlot writes one module global's address into its register at
// frame entry. Global addresses are per-interpreter state (they are
// reallocated on Reset), so they cannot live in the constant pool of a
// program shared across instances.
type globalSlot struct {
	reg int32
	g   *ir.Global
}

// compiler carries the per-function lowering state.
type compiler struct {
	f    *ir.Func
	code fnCode
	// regOf maps each instruction slot (ir.Instr.Slot) of f to its
	// register, -1 for a void instruction or a hole.
	regOf   []int32
	scratch int32
	// sites holds f's fault-site chains in block order, matched once by
	// layout; lowerBlock lowers sites[next] when it reaches its first
	// instruction.
	sites []siteMatch
	next  int
	// tab is the storage Compile lends (see tables). Its small table,
	// constIx and vecIx intern the constant pool (see intern).
	tab     *tables
	constIx map[constKey]int32
	vecIx   map[*ir.Const]int32
	starts  map[*ir.Block]int32
	fixups  []fixup
	fused   map[string]int
}

// constKey identifies a single-lane constant's runtime value.
type constKey struct {
	ty *ir.Type
	w  uint64
}

// tables is storage one Compile lends each of its function compiles in
// turn, pooled across Compiles (see tablePool) so a compile allocates
// neither table again.
//
// small interns the single-lane i32 constants below maxSmall, the words
// core.Instrument emits by the thousand (lane indices, active flags,
// lane-site IDs): small[w] is w's constant pool index plus one, 0 while
// the function being compiled has none. sites backs compiler.sites.
// Each compileFunc zeroes the small entries it set and hands sites back
// emptied, so the pool holds zeroed tables and no IR.
type tables struct {
	small []int32
	sites []siteMatch
}

var tablePool = sync.Pool{New: func() any { return new(tables) }}

// maxSmall bounds tables.small; a larger word goes to a map.
const maxSmall = 1 << 16

// fixup patches a branch target once every block's start pc is known.
type fixup struct {
	pc     int
	second bool // patch t1 instead of t0
	blk    *ir.Block
}

// compileFunc lowers f, a function of a module ir.Verify accepts (see
// Compile), in storage borrowed from t.
func compileFunc(f *ir.Func, fused map[string]int, t *tables) *fnCode {
	c := &compiler{
		f:      f,
		regOf:  make([]int32, f.NumSlots()),
		sites:  t.sites[:0],
		tab:    t,
		starts: map[*ir.Block]int32{},
		fused:  fused,
	}
	c.code.fn = f
	if len(f.Blocks) == 0 {
		panic(c.bug("no blocks"))
	}

	c.code.code = make([]vinstr, 0, c.layout())
	for _, b := range f.Blocks {
		c.starts[b] = int32(len(c.code.code))
		c.lowerBlock(b)
	}
	for _, fx := range c.fixups {
		target, ok := c.starts[fx.blk]
		if !ok {
			panic(c.bug("branch to %s, a block of another function", fx.blk.Ident()))
		}
		if fx.second {
			c.code.code[fx.pc].t1 = target
		} else {
			c.code.code[fx.pc].t0 = target
		}
	}
	if c.code.regs[c.scratch].ty != nil { // f has phis
		c.code.live = c.liveAtPhis()
	}
	for _, k := range c.code.consts {
		if k.Ty == ir.I32 && k.Bits[0] < uint64(len(t.small)) {
			t.small[k.Bits[0]] = 0
		}
	}
	clear(c.sites)
	t.sites = c.sites[:0]
	return &c.code
}

// bug formats a shape of f the compiler cannot lower, for a panic: no
// verified function has one.
func (c *compiler) bug(format string, args ...any) string {
	return fmt.Sprintf("vm: @%s: ", c.f.Nam) + fmt.Sprintf(format, args...)
}

// layout lays out f's registers and bounds its code in one pass,
// matching each fault site's chain as it goes and keeping the matches
// for lowerBlock.
//
// Registers: parameters first (slot == Param.Index), then one per
// value-producing instruction, then the move scratch sized to the
// widest phi, then (added by ref) any globals the body references. A
// chain's result takes its value's register instead of one of its own
// where the value is an instruction (a phi included) of the chain's own
// block and the chain is its only reader: every run of the block then
// defines the value again before the chain reads it, so what the chain
// writes there can reach no other read. A value defined before a loop
// and stored inside it fails the first test, and sharing would carry a
// flip into the next iteration's read.
//
// It returns a bound on the vinstrs lowerBlock emits, so fnCode.code is
// allocated once: each instruction lowers to at most one vinstr (a
// block's phis share one vPhiGroup, a fused pair one opcode), and the
// guards come on top: one per chain, and at most one per insert into
// lane 0 of undef, the first half of a broadcast pair.
func (c *compiler) layout() int {
	f := c.f
	c.code.regs = make([]regSlot, len(f.Params), len(f.Params)+len(c.regOf)+1)
	for i := range c.regOf {
		c.regOf[i] = -1
	}
	n := 0
	var widest *ir.Type
	for _, b := range f.Blocks {
		n += len(b.Instrs)
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if m := matchSite(b.Instrs[i:]); m.n > 0 {
				chain := b.Instrs[i : i+m.n]
				for _, x := range chain[:m.n-1] {
					c.regOf[x.Slot()] = c.newReg(x.Ty)
				}
				res := chain[m.n-1]
				if x, ok := m.val.(*ir.Instr); ok && x.Parent == b && x.NumUses() == m.reads() {
					c.regOf[res.Slot()] = c.regOf[x.Slot()]
				} else {
					c.regOf[res.Slot()] = c.newReg(res.Ty)
				}
				m.at = in
				c.sites = append(c.sites, m)
				n++
				i += m.n - 1
				continue
			}
			if in.Op == ir.OpPhi && (widest == nil || in.Ty.Lanes() > widest.Lanes()) {
				widest = in.Ty
			}
			if !in.Ty.IsVoid() {
				c.regOf[in.Slot()] = c.newReg(in.Ty)
			}
			if in.Op == ir.OpInsertElement && bcastInit(in) {
				n++
			}
		}
	}
	c.scratch = c.newReg(widest)
	return n
}

// liveAtPhis computes fnCode.live by a backward liveness pass over the
// IR on register bitsets: live-in(B) = uses(B) ∪ (live-out(B) − defs(B))
// and live-out(B) = ⋃ over successors S of live-in(S) plus the operands
// S's phis take from B. A phi is a definition of its own block and a
// use at the end of each predecessor, exactly where the bytecode's edge
// moves read it. Parameters (saved separately) and globals (rewritten
// at frame entry) are not instructions, so they never enter a set.
func (c *compiler) liveAtPhis() map[int32][]int32 {
	blocks := c.f.Blocks
	nb := len(blocks)
	words := (len(c.code.regs) + 63) / 64
	sets := make([]uint64, 4*nb*words)
	set := func(k, b int) []uint64 { return sets[(k*nb+b)*words:][:words] }
	const use, def, in, out = 0, 1, 2, 3
	reg := func(v ir.Value) int32 {
		if x, ok := v.(*ir.Instr); ok {
			return c.regFor(x)
		}
		return -1
	}
	index := make(map[*ir.Block]int32, nb)
	for i, b := range blocks {
		index[b] = int32(i)
	}
	// succ holds each block's (at most two) successor indices, -1 padded.
	succ := make([]int32, 2*nb)
	for i, b := range blocks {
		u, d, o := set(use, i), set(def, i), set(out, i)
		succ[2*i], succ[2*i+1] = -1, -1
		for _, x := range b.Instrs {
			if x.Op != ir.OpPhi {
				for k := 0; k < x.NumOperands(); k++ {
					if r := reg(x.Operand(k)); r >= 0 && d[r/64]&(1<<(r%64)) == 0 {
						u[r/64] |= 1 << (r % 64)
					}
				}
			}
			if r := c.regOf[x.Slot()]; r >= 0 {
				d[r/64] |= 1 << (r % 64)
			}
			if !x.Op.IsTerminator() {
				continue
			}
			// The operands the successors' phis take along this edge are
			// used at the end of b, so they seed its live-out.
			for k, s := range x.Succs {
				succ[2*i+k] = index[s]
				for _, phi := range s.Instrs {
					if phi.Op != ir.OpPhi {
						break
					}
					for j, pred := range phi.Succs {
						if r := reg(phi.Operand(j)); pred == b && r >= 0 {
							o[r/64] |= 1 << (r % 64)
						}
					}
				}
			}
			break // lowering stops at the first terminator too
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			o, li := set(out, i), set(in, i)
			u, d := set(use, i), set(def, i)
			for _, s := range succ[2*i : 2*i+2] {
				if s >= 0 {
					for w, m := range set(in, int(s)) {
						o[w] |= m
					}
				}
			}
			for w := range li {
				if nw := u[w] | (o[w] &^ d[w]); nw != li[w] {
					li[w] = nw
					changed = true
				}
			}
		}
	}

	// A block's set adds its phis to its live-in set. The sets share one
	// growing backing array: a full-length subslice stays valid when a
	// later append moves the array.
	live := map[int32][]int32{}
	var all []int32
	for i, b := range blocks {
		li, phis := set(in, i), 0
		for _, phi := range b.Instrs {
			if phi.Op != ir.OpPhi {
				break
			}
			r := c.regOf[phi.Slot()]
			li[r/64] |= 1 << (r % 64)
			phis++
		}
		if phis == 0 {
			continue
		}
		from := len(all)
		for w, m := range li {
			for ; m != 0; m &= m - 1 {
				all = append(all, int32(w*64+bits.TrailingZeros64(m)))
			}
		}
		live[c.starts[b]] = all[from:len(all):len(all)]
	}
	return live
}

// newReg appends a register owning Lanes(ty) words (none for a nil ty:
// a scratch register in a function without phis).
func (c *compiler) newReg(ty *ir.Type) int32 {
	n := 0
	if ty != nil {
		n = ty.Lanes()
	}
	c.code.regs = append(c.code.regs, regSlot{ty: ty, lanes: n})
	c.code.nwords += n
	return int32(len(c.code.regs) - 1)
}

// regFor returns the register of x, a value-producing instruction in
// one of f's blocks. An instruction of another function, or one removed
// from its block, has none: its slot may name one of f's registers, so
// the slot alone does not decide.
func (c *compiler) regFor(x *ir.Instr) int32 {
	if x.Parent == nil || x.Parent.Func != c.f || c.regOf[x.Slot()] < 0 {
		panic(c.bug("operand %s has no register", x.Ident()))
	}
	return c.regOf[x.Slot()]
}

// ref resolves an operand to its slot: register for params and
// instruction results, pool index (encoded negative) for constants,
// and a frame-entry-materialized register for globals. A pool entry
// reads the constant's own words in place: the machine never writes
// a pool value, and externs must not write their arguments.
func (c *compiler) ref(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Const:
		return ^c.intern(x)
	case *ir.Param:
		return int32(x.Index)
	case *ir.Instr:
		return c.regFor(x)
	case *ir.Global:
		for _, gs := range c.code.globals {
			if gs.g == x {
				return gs.reg
			}
		}
		r := c.newReg(x.Type())
		c.code.globals = append(c.code.globals, globalSlot{reg: r, g: x})
		return r
	}
	panic(c.bug("cannot lower operand %T", v))
}

// intern returns x's index in the constant pool, adding x's value
// unless an equal one is there: single-lane constants are equal by type
// and word (so the many equal lane indices and active flags share one
// entry), vector constants by identity.
func (c *compiler) intern(x *ir.Const) int32 {
	if len(x.Bits) > 1 {
		ix, ok := c.vecIx[x]
		if !ok {
			if c.vecIx == nil {
				c.vecIx = map[*ir.Const]int32{}
			}
			ix = c.addConst(x)
			c.vecIx[x] = ix
		}
		return ix
	}
	w := x.Bits[0]
	if x.Ty == ir.I32 && w < maxSmall {
		t := c.tab
		if n := int(w) + 1; n > len(t.small) {
			t.small = slices.Grow(t.small, n-len(t.small))[:n]
		}
		if t.small[w] == 0 {
			t.small[w] = c.addConst(x) + 1
		}
		return t.small[w] - 1
	}
	key := constKey{x.Ty, w}
	ix, ok := c.constIx[key]
	if !ok {
		if c.constIx == nil {
			c.constIx = map[constKey]int32{}
		}
		ix = c.addConst(x)
		c.constIx[key] = ix
	}
	return ix
}

// addConst appends x's value to the constant pool.
func (c *compiler) addConst(x *ir.Const) int32 {
	c.code.consts = append(c.code.consts, interp.Value{Ty: x.Ty, Bits: x.Bits})
	return int32(len(c.code.consts) - 1)
}

func (c *compiler) emit(v vinstr) int {
	c.code.code = append(c.code.code, v)
	return len(c.code.code) - 1
}

// lowerBlock lowers one basic block: the phi accounting group, the
// straight-line body with digram fusion, and the terminator with its
// per-edge parallel-move bundles. Lowering stops at the first
// terminator — anything after it is unreachable under the tree-walker
// too.
func (c *compiler) lowerBlock(b *ir.Block) {
	phis := b.Phis()
	if len(phis) > 0 {
		g := vinstr{op: vPhiGroup}
		for _, phi := range phis {
			g.phis = append(g.phis, phiSlot{
				in: phi, reg: c.regOf[phi.Slot()], vec: phi.IsVectorInstr(),
			})
		}
		c.emit(g)
	}

	body := b.Instrs[len(phis):]
	for i := 0; i < len(body); i++ {
		in := body[i]
		if in.Op.IsTerminator() {
			c.lowerTerminator(b, in)
			return
		}
		if n := c.lowerSite(body[i:]); n > 0 {
			i += n - 1
			continue
		}
		var next *ir.Instr
		if i+1 < len(body) {
			next = body[i+1]
		}
		if c.lowerInstr(b, in, next) {
			i++ // fused with next
			if next.Op.IsTerminator() {
				return // the fused opcode carried the terminator
			}
		}
	}
	panic(c.bug("block %s is not terminated", b.Nam))
}

// lowerInstr lowers one non-terminator instruction, fusing it with next
// when the pair matches a superinstruction pattern. Returns whether
// next was consumed.
func (c *compiler) lowerInstr(b *ir.Block, in, next *ir.Instr) bool {
	v := c.newVinstr(in)

	// Digram fusion: adjacent single-use producer/consumer pairs from
	// the profiler's superinstruction candidate list. Fusing never
	// reorders accounting — the fused opcodes replay both constituents'
	// DynInstrs/budget/trace/retire schedule.
	if next != nil && in.NumUses() == 1 {
		switch {
		case in.Op == ir.OpGEP && next.Op == ir.OpLoad && next.Operand(0) == in:
			c.fuseGEP(&v, in, next, vGEPLoad)
			c.fused["gep+load"]++
			c.emit(v)
			return true
		case in.Op == ir.OpGEP && next.Op == ir.OpStore && next.Operand(1) == in:
			c.fuseGEP(&v, in, next, vGEPStore)
			c.fused["gep+store"]++
			c.emit(v)
			return true
		case (in.Op == ir.OpICmp || in.Op == ir.OpFCmp) && in.Ty == ir.I1 &&
			next.Op == ir.OpCondBr && next.Operand(0) == in:
			c.fuseCmpBr(b, &v, in, next)
			c.fused["cmp+br"]++
			c.emit(v)
			return true
		case in.Op == ir.OpInsertElement && bcastInit(in) && isBcast(next, in):
			c.lowerBcast(in, next)
			return true
		}
	}

	c.lowerPlain(&v, in)
	c.emit(v)
	return false
}

// newVinstr starts the lowering of in: its opcode, predicate, result
// register (-1 when void) and accounting fields.
func (c *compiler) newVinstr(in *ir.Instr) vinstr {
	v := vinstr{
		irop: in.Op, pred: in.Pred,
		in: in, vec: in.IsVectorInstr(), dst: -1,
	}
	if r := c.regOf[in.Slot()]; r >= 0 {
		v.dst = r
	}
	return v
}

// lowerPlain fills v for a single unfused instruction.
func (c *compiler) lowerPlain(v *vinstr, in *ir.Instr) {
	n := 0 // operands into a, b and c
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv,
		ir.OpURem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		v.op, n = vIntBin, 2
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFRem:
		v.op, n = vFloatBin, 2
	case ir.OpICmp, ir.OpFCmp:
		v.op, n = vCmp, 2
	case ir.OpSelect:
		v.op, n = vSelect, 3
	case ir.OpAlloca:
		v.op = vAlloca
		v.elem = uint64(in.AllocElem.ByteSize() * in.AllocCount)
	case ir.OpLoad:
		v.op, n = vLoad, 1
	case ir.OpStore:
		v.op, n = vStore, 2
	case ir.OpGEP:
		v.op, n = vGEP, 2
		v.elem = uint64(in.Ty.Elem.ByteSize())
		v.idxSh = idxShift(in.Operand(1))
	case ir.OpExtractElement:
		v.op, n = vExtract, 2
		v.idxSh = idxShift(in.Operand(1))
	case ir.OpInsertElement:
		v.op, n = vInsert, 3
		v.idxSh = idxShift(in.Operand(2))
	case ir.OpShuffleVector:
		v.op, n = vShuffle, 2
		v.mask = in.ShuffleMask
	case ir.OpCall:
		v.op = vCall
		v.callee = in.Callee
		v.decl = in.Callee.IsDecl && c.f.Module.Has(in.Callee)
		v.args = make([]int32, in.NumOperands())
		c.code.maxArgs = max(c.code.maxArgs, len(v.args))
		for i := range v.args {
			v.args[i] = c.ref(in.Operand(i))
		}
	default:
		if !in.Op.IsCast() {
			panic(c.bug("cannot lower %s", in))
		}
		v.op, n = vCast, 1
	}
	for i, r := range []*int32{&v.a, &v.b, &v.c}[:n] {
		*r = c.ref(in.Operand(i))
	}
}

// lowerSite lowers the fault site whose chain starts body, if one does
// (layout matched it): a vSite guard, then the chain's instructions one
// by one, unfused, so the guard's fall-through runs exactly the code an
// unguarded chain would. It returns the chain's length, 0 when no chain
// starts here.
func (c *compiler) lowerSite(body []*ir.Instr) int {
	if c.next == len(c.sites) || c.sites[c.next].at != body[0] {
		return 0
	}
	m := &c.sites[c.next]
	c.next++
	site := &siteChain{n: uint64(m.n), lanes: uint64(m.lanes)}
	for _, in := range body[:m.n] {
		if in.IsVectorInstr() {
			site.nvec++
		}
	}
	g := vinstr{op: vSite, a: c.ref(m.val), dst: c.regFor(body[m.n-1]), callee: m.callee, site: site}
	if m.mask != nil {
		g.b = c.ref(m.mask)
		site.masked = true
		site.signBit = uint8(m.mask.Type().Elem.Bits - 1)
	}
	pc := c.emit(g)
	for _, in := range body[:m.n] {
		v := c.newVinstr(in)
		c.lowerPlain(&v, in)
		c.emit(v)
	}
	c.code.code[pc].t0 = int32(len(c.code.code))
	c.fused["site"]++
	return m.n
}

// siteMatch is one fault site's instrumentation found by matchSite.
type siteMatch struct {
	at     *ir.Instr // the chain's first instruction (set by layout)
	n      int       // instructions in the chain; 0 when none matched
	val    ir.Value  // the site's value, which the chain returns unflipped
	mask   ir.Value  // the execution mask; nil when every lane is live
	callee *ir.Func  // the injection extern every call of the chain calls
	lanes  int
}

// reads returns how many uses of its value the chain makes: a scalar
// site's call reads it once, a vector chain's lane 0 extract and insert
// read it twice.
func (m *siteMatch) reads() int {
	if m.n == 1 {
		return 1
	}
	return 2
}

// matchSite matches the instrumentation core.Instrument emits for one
// fault site at the start of body. A scalar site is one call
// @f(v, 1, id) of a declaration returning v's type. A vector site is a
// chain of extractelement, call and insertelement per lane, lane 0
// first, threading the vector through the inserts; each call's active
// argument is the constant 1 or, when a mask decides, a lane's
// zext(icmp slt (extractelement mask, lane), 0). Every value the chain
// defines, its result excepted, must be used only by the chain, so a
// guard that skips it leaves stale only registers nothing else reads.
// An instruction that is neither a call nor an extractelement costs one
// opcode test.
func matchSite(body []*ir.Instr) siteMatch {
	in := body[0]
	switch in.Op {
	case ir.OpCall:
		if in.NumOperands() == 3 && injectCall(in, in.Operand(0), nil) {
			return siteMatch{n: 1, val: in.Operand(0), callee: in.Callee, lanes: 1}
		}
	case ir.OpExtractElement:
		return matchChain(body)
	}
	return siteMatch{}
}

// matchChain matches a vector site's per-lane chain (see matchSite).
func matchChain(body []*ir.Instr) siteMatch {
	var none siteMatch
	val := body[0].Operand(0)
	ty := val.Type()
	if !ty.IsVector() {
		return none
	}
	m := siteMatch{val: val, lanes: ty.Len}
	cur, j := val, 0
	for lane := 0; lane < ty.Len; lane++ {
		if j+3 > len(body) {
			return none
		}
		ext := body[j]
		if ext.Op != ir.OpExtractElement || ext.Operand(0) != cur ||
			!constIs(ext.Operand(1), int64(lane)) || ext.NumUses() != 1 {
			return none
		}
		j++
		var active ir.Value
		if body[j].Op == ir.OpExtractElement {
			if j+5 > len(body) {
				return none
			}
			extm, cmp, act := body[j], body[j+1], body[j+2]
			if lane == 0 {
				m.mask = extm.Operand(0)
				mt := m.mask.Type()
				if !mt.IsVector() || mt.Len != ty.Len || !mt.Elem.IsInt() {
					return none
				}
			}
			if m.mask == nil || extm.Operand(0) != m.mask ||
				!constIs(extm.Operand(1), int64(lane)) || extm.NumUses() != 1 ||
				cmp.Op != ir.OpICmp || cmp.Pred != ir.IntSLT || cmp.Operand(0) != extm ||
				!constIs(cmp.Operand(1), 0) || cmp.NumUses() != 1 ||
				act.Op != ir.OpZExt || act.Operand(0) != cmp || act.NumUses() != 1 {
				return none
			}
			active = act
			j += 3
		} else if m.mask != nil {
			return none
		}
		call, ins := body[j], body[j+1]
		if !injectCall(call, ext, active) || call.NumUses() != 1 ||
			(m.callee != nil && call.Callee != m.callee) {
			return none
		}
		m.callee = call.Callee
		if ins.Op != ir.OpInsertElement || ins.Operand(0) != cur || ins.Operand(1) != call ||
			!constIs(ins.Operand(2), int64(lane)) || (lane < ty.Len-1 && ins.NumUses() != 2) {
			return none
		}
		cur = ins
		j += 2
	}
	m.n = j
	return m
}

// injectCall reports whether call is @f(val, active, id) for a
// declaration f returning val's type, a constant id, and, when active
// is nil, the constant 1 as its active argument.
func injectCall(call *ir.Instr, val, active ir.Value) bool {
	if call.Op != ir.OpCall || call.Callee == nil || !call.Callee.IsDecl ||
		call.NumOperands() != 3 || call.Operand(0) != val || call.Ty != val.Type() {
		return false
	}
	if _, ok := call.Operand(2).(*ir.Const); !ok {
		return false
	}
	if active == nil {
		return constIs(call.Operand(1), 1)
	}
	return call.Operand(1) == active
}

// constIs reports whether v is the scalar integer constant want.
func constIs(v ir.Value, want int64) bool {
	k, ok := v.(*ir.Const)
	return ok && !k.Undef && k.Ty.IsInt() && len(k.Bits) == 1 &&
		ir.SignExtend(k.Bits[0], k.Ty.Bits) == want
}

// bcastInit reports whether in, an insertelement, writes lane 0 of an
// undef vector: the first half of Figure 9's broadcast.
func bcastInit(in *ir.Instr) bool {
	k, ok := in.Operand(0).(*ir.Const)
	return ok && k.Undef && constIs(in.Operand(2), 0)
}

// isBcast reports whether shuf completes the broadcast that init
// starts: a shufflevector of init whose mask selects lane 0 into every
// lane.
func isBcast(shuf, init *ir.Instr) bool {
	if shuf.Op != ir.OpShuffleVector || shuf.Operand(0) != init {
		return false
	}
	for _, mi := range shuf.ShuffleMask {
		if mi != 0 {
			return false
		}
	}
	return true
}

// lowerBcast lowers a broadcast pair, init used only by shuf, as a
// vBcast guard followed by both instructions lowered unchanged, which
// are the guard's replay path.
func (c *compiler) lowerBcast(init, shuf *ir.Instr) {
	pc := c.emit(vinstr{
		op: vBcast, a: c.ref(init.Operand(1)), dst: c.regOf[shuf.Slot()],
		in: init, vec: init.IsVectorInstr(), in2: shuf, vec2: shuf.IsVectorInstr(),
	})
	for _, in := range []*ir.Instr{init, shuf} {
		v := c.newVinstr(in)
		c.lowerPlain(&v, in)
		c.emit(v)
	}
	c.code.code[pc].t0 = int32(len(c.code.code))
	c.fused["bcast"]++
}

// fuseGEP fills v as a fused gep+load / gep+store superinstruction.
func (c *compiler) fuseGEP(v *vinstr, gep, mem *ir.Instr, op vop) {
	v.op = op
	v.a = c.ref(gep.Operand(0))
	v.b = c.ref(gep.Operand(1))
	v.elem = uint64(gep.Ty.Elem.ByteSize())
	v.idxSh = idxShift(gep.Operand(1))
	v.in2, v.vec2 = mem, mem.IsVectorInstr()
	if op == vGEPLoad {
		v.dst = c.regOf[mem.Slot()]
	} else {
		v.c = c.ref(mem.Operand(0))
	}
}

// idxShift returns the sign-extension shift for v's scalar bit width
// (0 for 64-bit-or-wider payloads, where no extension is needed).
func idxShift(v ir.Value) uint8 {
	b := v.Type().Scalar().Bits
	if b <= 0 || b >= 64 {
		return 0
	}
	return uint8(64 - b)
}

// fuseCmpBr fills v as a fused scalar-compare + conditional-branch
// superinstruction (the profiler's "mask test + branch" digram).
func (c *compiler) fuseCmpBr(b *ir.Block, v *vinstr, cmp, br *ir.Instr) {
	v.op = vCmpBr
	v.a = c.ref(cmp.Operand(0))
	v.b = c.ref(cmp.Operand(1))
	v.in2, v.vec2 = br, br.IsVectorInstr()
	v.m0 = c.edgeMoves(b, br.Succs[0])
	v.m1 = c.edgeMoves(b, br.Succs[1])
	c.fixups = append(c.fixups,
		fixup{pc: len(c.code.code), blk: br.Succs[0]},
		fixup{pc: len(c.code.code), second: true, blk: br.Succs[1]})
}

// lowerTerminator lowers the block's terminator with its edge bundles.
func (c *compiler) lowerTerminator(b *ir.Block, in *ir.Instr) {
	v := vinstr{
		irop: in.Op, in: in, vec: in.IsVectorInstr(), dst: -1,
	}
	switch in.Op {
	case ir.OpBr:
		v.op = vBr
		v.m0 = c.edgeMoves(b, in.Succs[0])
		c.fixups = append(c.fixups, fixup{pc: len(c.code.code), blk: in.Succs[0]})
	case ir.OpCondBr:
		v.op = vCondBr
		v.a = c.ref(in.Operand(0))
		v.m0 = c.edgeMoves(b, in.Succs[0])
		v.m1 = c.edgeMoves(b, in.Succs[1])
		c.fixups = append(c.fixups,
			fixup{pc: len(c.code.code), blk: in.Succs[0]},
			fixup{pc: len(c.code.code), second: true, blk: in.Succs[1]})
	case ir.OpRet:
		v.op = vRetVoid
		if in.NumOperands() > 0 {
			v.op = vRet
			v.a = c.ref(in.Operand(0))
		}
	case ir.OpUnreachable:
		v.op = vUnreachable
	}
	c.emit(v)
}

// edgeMoves builds the sequenced parallel-move bundle for the edge
// b -> succ: one move per phi of succ, from the incoming value b
// contributes. The bundle runs after the branch decision and before
// control transfers, which makes critical edges safe without block
// splitting. Sequencing emits a move only once no other pending move
// still reads its destination; cycles (the swap problem) are broken by
// parking one destination in the scratch register (the lost-copy
// problem cannot arise: destinations are written exactly once).
func (c *compiler) edgeMoves(b *ir.Block, succ *ir.Block) []move {
	phis := succ.Phis()
	if len(phis) == 0 {
		return nil
	}
	pending := make([]move, 0, len(phis))
	for _, phi := range phis {
		i := slices.Index(phi.Succs, b)
		if i < 0 {
			panic(c.bug("%s has no incoming for %s", phi.Ident(), b.Ident()))
		}
		src := c.ref(phi.Operand(i))
		dst := c.regOf[phi.Slot()]
		if src == dst {
			continue // self-move: the loop-carried value is already home
		}
		pending = append(pending, move{dst: dst, src: src})
	}

	var out []move
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); {
			mv := pending[i]
			blocked := false
			for j, other := range pending {
				if j != i && other.src == mv.dst {
					blocked = true
					break
				}
			}
			if blocked {
				i++
				continue
			}
			out = append(out, mv)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
		}
		if !progress {
			// Every pending destination is still read by another move: a
			// cycle. Park one destination in scratch and retarget its
			// readers.
			parked := pending[0].dst
			out = append(out, move{dst: c.scratch, src: parked})
			for j := range pending {
				if pending[j].src == parked {
					pending[j].src = c.scratch
				}
			}
		}
	}
	return out
}
