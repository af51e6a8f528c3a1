package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural and type well-formedness of the module:
// each function numbered by its index (see Func.Num), terminated blocks,
// per-opcode operand typing, phi/predecessor agreement, no phi in an
// entry block, call-signature agreement, callees of the module,
// operands and blocks (successors, phi incomings) of the same function,
// one distinct in-range slot per instruction (see Instr.Slot), and SSA
// dominance: every use of an instruction's value is dominated by its
// definition. It returns all violations found.
func (m *Module) Verify() error {
	var errs []error
	for i, f := range m.Funcs {
		if f.num != i {
			errs = append(errs, fmt.Errorf("@%s: numbered %d at index %d", f.Nam, f.num, i))
		}
		if f.IsDecl {
			continue
		}
		if err := f.Verify(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Verify checks a single function definition. Dominance is checked once
// the function is otherwise well formed.
func (f *Func) Verify() error {
	var errs []error
	bad := func(in *Instr, format string, args ...any) {
		where := fmt.Sprintf("@%s", f.Nam)
		if in != nil && in.Parent != nil {
			where = fmt.Sprintf("@%s/%s: %s", f.Nam, in.Parent.Nam, in)
		}
		errs = append(errs, fmt.Errorf("%s: %s", where, fmt.Sprintf(format, args...)))
	}

	if len(f.Blocks) == 0 {
		return fmt.Errorf("@%s: function definition has no blocks", f.Nam)
	}

	g := newBlockGraph(f)
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			bad(nil, "block %s is not terminated", b.Nam)
			continue
		}
		seenNonPhi := false
		for idx, in := range b.Instrs {
			if in.Op == OpPhi {
				if seenNonPhi {
					bad(in, "phi after non-phi instruction")
				}
				if b == f.Blocks[0] {
					bad(in, "phi in the entry block")
				}
			} else {
				seenNonPhi = true
			}
			if in.Op.IsTerminator() && idx != len(b.Instrs)-1 {
				bad(in, "terminator in the middle of block")
			}
			for i, opv := range in.ops {
				if opv == nil {
					bad(in, "nil operand %d", i)
				}
				if x, ok := opv.(*Instr); ok && x.Parent != nil && x.Parent.Func != f {
					bad(in, "operand %d %s is defined in @%s", i, x.Ident(), x.Parent.Func.Nam)
				}
			}
			for _, s := range in.Succs {
				if _, ok := g.num[s]; !ok {
					bad(in, "block %s is not in @%s", s.Ident(), f.Nam)
				}
			}
			verifyInstr(in, g, bad, f)
		}
	}
	verifySlots(f, bad)
	if len(errs) == 0 {
		verifyDominance(f, g, bad)
	}
	return errors.Join(errs...)
}

// blockGraph is a function's CFG over dense block numbers: f.Blocks
// order, the entry block 0. The successors and predecessors of block b
// are succ[succAt[b]:succAt[b+1]] and pred[predAt[b]:predAt[b+1]].
type blockGraph struct {
	num                        map[*Block]int32
	succAt, succ, predAt, pred []int32
}

func newBlockGraph(f *Func) *blockGraph {
	n := len(f.Blocks)
	g := &blockGraph{
		num:    make(map[*Block]int32, n),
		succAt: make([]int32, n+1),
		predAt: make([]int32, n+1),
	}
	for i, b := range f.Blocks {
		g.num[b] = int32(i)
	}
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			// A block of another function has no number; Func.Verify
			// reports it.
			if si, ok := g.num[s]; ok {
				g.succ = append(g.succ, si)
				g.predAt[si+1]++
			}
		}
		g.succAt[i+1] = int32(len(g.succ))
	}
	for i := 0; i < n; i++ {
		g.predAt[i+1] += g.predAt[i]
	}
	g.pred = make([]int32, len(g.succ))
	next := append([]int32(nil), g.predAt[:n]...)
	for b := int32(0); b < int32(n); b++ {
		for _, s := range g.succs(b) {
			g.pred[next[s]] = b
			next[s]++
		}
	}
	return g
}

func (g *blockGraph) succs(b int32) []int32 { return g.succ[g.succAt[b]:g.succAt[b+1]] }
func (g *blockGraph) preds(b int32) []int32 { return g.pred[g.predAt[b]:g.predAt[b+1]] }

// domTree is a function's dominator tree over block numbers.
type domTree struct {
	// rpo is each block's reverse-postorder position, -1 for blocks
	// unreachable from the entry; idom its immediate dominator (the
	// entry's is itself).
	rpo, idom []int32
}

// dominators computes the dominator tree with the Cooper–Harvey–Kennedy
// iteration.
func (g *blockGraph) dominators() *domTree {
	n := len(g.succAt) - 1
	d := &domTree{rpo: make([]int32, n), idom: make([]int32, n)}
	for i := range d.rpo {
		d.rpo[i], d.idom[i] = -1, -1
	}
	post := make([]int32, 0, n)
	type visit struct{ b, next int32 }
	stack := []visit{{0, 0}}
	d.rpo[0] = 0 // marks the entry seen; every rpo is set below
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := g.succs(top.b); top.next < int32(len(succs)) {
			s := succs[top.next]
			top.next++
			if d.rpo[s] < 0 {
				d.rpo[s] = 0
				stack = append(stack, visit{s, 0})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for i, b := range post {
		d.rpo[b] = int32(len(post) - 1 - i)
	}

	rpo, idom := d.rpo, d.idom
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- { // reverse postorder, entry skipped
			b := post[i]
			nd := int32(-1)
			for _, p := range g.preds(b) {
				switch {
				case idom[p] < 0: // unreachable, or not reached yet
				case nd < 0:
					nd = p
				default:
					for p != nd {
						for rpo[p] > rpo[nd] {
							p = idom[p]
						}
						for rpo[nd] > rpo[p] {
							nd = idom[nd]
						}
					}
				}
			}
			if nd >= 0 && idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}
	return d
}

// dominates reports whether block a dominates block b. A block
// unreachable from the entry is dominated by every block: it never
// runs.
func (d *domTree) dominates(a, b int32) bool {
	if d.rpo[b] < 0 {
		return true
	}
	if d.rpo[a] < 0 {
		return false
	}
	for d.rpo[b] > d.rpo[a] {
		b = d.idom[b]
	}
	return a == b
}

// verifyDominance requires every use of an instruction's value to be
// dominated by its definition: an earlier instruction of the same
// block, or one in a dominating block. A phi reads its incoming value
// at the end of the incoming block, which the definition must
// dominate; so phis of one block may read each other along edges the
// block dominates. Unreachable blocks are exempt. Slots must already
// verify: instructions are found by slot.
func verifyDominance(f *Func, g *blockGraph, bad func(*Instr, string, ...any)) {
	d := g.dominators()
	// at[s] places the instruction in slot s: its block number and its
	// position in that block.
	type place struct{ blk, pos int32 }
	at := make([]place, f.NumSlots())
	for bi, b := range f.Blocks {
		for i, in := range b.Instrs {
			at[in.Slot()] = place{int32(bi), int32(i)}
		}
	}
	// where returns the place of def, ok false when def is in no block
	// of f.
	where := func(def *Instr) (place, bool) {
		s := def.Slot()
		if s < 0 || s >= len(at) || f.Blocks[at[s].blk] != def.Parent {
			return place{}, false
		}
		return at[s], true
	}
	for bi, b := range f.Blocks {
		use := int32(bi)
		if d.rpo[use] < 0 {
			continue
		}
		for ui, in := range b.Instrs {
			for i, opv := range in.ops {
				def, ok := opv.(*Instr)
				if !ok {
					continue
				}
				if def.Parent == nil {
					bad(in, "operand %d %s is in no block", i, def.Ident())
					continue
				}
				dp, ok := where(def)
				switch {
				case in.Op == OpPhi:
					if inc := in.Succs[i]; !ok || !d.dominates(dp.blk, g.num[inc]) {
						bad(in, "incoming %s from %s is not dominated by its definition in %s",
							def.Ident(), inc.Ident(), def.Parent.Ident())
					}
				case ok && dp.blk == use:
					if dp.pos >= int32(ui) {
						bad(in, "operand %s is used before its definition in %s",
							def.Ident(), def.Parent.Ident())
					}
				case !ok || !d.dominates(dp.blk, use):
					bad(in, "operand %s is not dominated by its definition in %s",
						def.Ident(), def.Parent.Ident())
				}
			}
		}
	}
}

// verifySlots requires every instruction of f to hold its own slot
// below f.NumSlots(): executors size per-call storage by the count and
// index it by the slot.
func verifySlots(f *Func, bad func(*Instr, string, ...any)) {
	held := make([]bool, f.NumSlots())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch s := in.Slot(); {
			case s < 0 || s >= len(held):
				bad(in, "slot %d outside [0, %d)", s, len(held))
			case held[s]:
				bad(in, "slot %d held twice", s)
			default:
				held[s] = true
			}
		}
	}
}

func verifyInstr(in *Instr, g *blockGraph,
	bad func(*Instr, string, ...any), f *Func) {
	op := func(i int) Value { return in.ops[i] }
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpUDiv, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		if len(in.ops) != 2 {
			bad(in, "binary op needs 2 operands")
			return
		}
		if op(0).Type() != op(1).Type() || op(0).Type() != in.Ty {
			bad(in, "integer binary type mismatch")
		}
		if !in.Ty.Scalar().IsInt() {
			bad(in, "integer op on non-integer type %s", in.Ty)
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFRem:
		if len(in.ops) != 2 {
			bad(in, "binary op needs 2 operands")
			return
		}
		if op(0).Type() != op(1).Type() || op(0).Type() != in.Ty {
			bad(in, "float binary type mismatch")
		}
		if !in.Ty.Scalar().IsFloat() {
			bad(in, "float op on non-float type %s", in.Ty)
		}
	case OpICmp:
		if !op(0).Type().Scalar().IsInt() && !op(0).Type().Scalar().IsPointer() {
			bad(in, "icmp on non-integer %s", op(0).Type())
		}
		checkCmp(in, bad)
	case OpFCmp:
		if !op(0).Type().Scalar().IsFloat() {
			bad(in, "fcmp on non-float %s", op(0).Type())
		}
		checkCmp(in, bad)
	case OpSelect:
		ct := op(0).Type()
		if ct != I1 && !(ct.IsVector() && ct.Elem == I1 && in.Ty.IsVector() && ct.Len == in.Ty.Len) {
			bad(in, "select condition type %s invalid for %s", ct, in.Ty)
		}
		if op(1).Type() != in.Ty || op(2).Type() != in.Ty {
			bad(in, "select arm type mismatch")
		}
	case OpAlloca:
		if in.AllocElem == nil || in.AllocCount <= 0 {
			bad(in, "alloca without element type or count")
		}
	case OpLoad:
		if !op(0).Type().IsPointer() || op(0).Type().Elem != in.Ty {
			bad(in, "load type mismatch")
		}
	case OpStore:
		if !op(1).Type().IsPointer() || op(1).Type().Elem != op(0).Type() {
			bad(in, "store type mismatch")
		}
	case OpGEP:
		if !op(0).Type().IsPointer() || in.Ty != op(0).Type() {
			bad(in, "gep type mismatch")
		}
		if !op(1).Type().IsInt() {
			bad(in, "gep index must be scalar integer")
		}
	case OpExtractElement:
		if !op(0).Type().IsVector() || op(0).Type().Elem != in.Ty {
			bad(in, "extractelement type mismatch")
		}
		if !op(1).Type().IsInt() {
			bad(in, "extractelement index must be integer")
		}
	case OpInsertElement:
		if !in.Ty.IsVector() || op(0).Type() != in.Ty || op(1).Type() != in.Ty.Elem {
			bad(in, "insertelement type mismatch")
		}
	case OpShuffleVector:
		vt := op(0).Type()
		if !vt.IsVector() || op(1).Type() != vt {
			bad(in, "shufflevector operand mismatch")
			return
		}
		if in.Ty != Vec(vt.Elem, len(in.ShuffleMask)) {
			bad(in, "shufflevector result type mismatch")
		}
		for _, mi := range in.ShuffleMask {
			if mi >= 2*vt.Len {
				bad(in, "shuffle mask index %d out of range", mi)
			}
		}
	case OpPhi:
		if len(in.ops) != len(in.Succs) {
			bad(in, "phi value/block count mismatch")
			return
		}
		for i := range in.ops {
			if in.ops[i].Type() != in.Ty {
				bad(in, "phi incoming %d type mismatch", i)
			}
		}
		preds := g.preds(g.num[in.Parent])
		if len(in.ops) != len(preds) {
			bad(in, "phi has %d incomings, block has %d predecessors",
				len(in.ops), len(preds))
		} else {
			for _, p := range preds {
				found := false
				for _, s := range in.Succs {
					if s == f.Blocks[p] {
						found = true
						break
					}
				}
				if !found {
					bad(in, "phi missing incoming for predecessor %s", f.Blocks[p].Nam)
				}
			}
		}
	case OpCall:
		if !f.Module.Has(in.Callee) {
			bad(in, "callee @%s is not in the module", in.Callee.Nam)
		}
		sig := in.Callee.Sig
		if !sig.Variadic && len(in.ops) != len(sig.Params) {
			bad(in, "call arg count %d != %d", len(in.ops), len(sig.Params))
			return
		}
		for i := range sig.Params {
			if i < len(in.ops) && in.ops[i].Type() != sig.Params[i] {
				bad(in, "call arg %d type %s != %s", i, in.ops[i].Type(), sig.Params[i])
			}
		}
		if in.Ty != sig.Ret {
			bad(in, "call result type mismatch")
		}
	case OpBr:
		if len(in.Succs) != 1 {
			bad(in, "br needs one target")
		}
	case OpCondBr:
		if op(0).Type() != I1 {
			bad(in, "condbr condition must be i1")
		}
		if len(in.Succs) != 2 {
			bad(in, "condbr needs two targets")
		}
	case OpRet:
		rt := f.RetType()
		if rt.IsVoid() {
			if len(in.ops) != 0 {
				bad(in, "ret with value in void function")
			}
		} else if len(in.ops) != 1 || op(0).Type() != rt {
			bad(in, "ret type mismatch")
		}
	case OpUnreachable:
	default:
		if in.Op.IsCast() {
			verifyCast(in, bad)
			return
		}
		bad(in, "unknown opcode")
	}
}

func checkCmp(in *Instr, bad func(*Instr, string, ...any)) {
	op0, op1 := in.ops[0], in.ops[1]
	if op0.Type() != op1.Type() {
		bad(in, "cmp operand type mismatch")
	}
	want := I1
	if op0.Type().IsVector() {
		want = Vec(I1, op0.Type().Len)
	}
	if in.Ty != want {
		bad(in, "cmp result type must be %s", want)
	}
	if in.Pred == PredInvalid {
		bad(in, "cmp without predicate")
	}
}

func verifyCast(in *Instr, bad func(*Instr, string, ...any)) {
	from, to := in.ops[0].Type(), in.Ty
	if from.Lanes() != to.Lanes() {
		bad(in, "cast lane count mismatch %s -> %s", from, to)
		return
	}
	fs, ts := from.Scalar(), to.Scalar()
	switch in.Op {
	case OpTrunc:
		if !fs.IsInt() || !ts.IsInt() || fs.Bits <= ts.Bits {
			bad(in, "invalid trunc %s -> %s", from, to)
		}
	case OpZExt, OpSExt:
		if !fs.IsInt() || !ts.IsInt() || fs.Bits >= ts.Bits {
			bad(in, "invalid ext %s -> %s", from, to)
		}
	case OpFPTrunc:
		if fs != F64 || ts != F32 {
			bad(in, "invalid fptrunc %s -> %s", from, to)
		}
	case OpFPExt:
		if fs != F32 || ts != F64 {
			bad(in, "invalid fpext %s -> %s", from, to)
		}
	case OpSIToFP:
		if !fs.IsInt() || !ts.IsFloat() {
			bad(in, "invalid sitofp %s -> %s", from, to)
		}
	case OpFPToSI:
		if !fs.IsFloat() || !ts.IsInt() {
			bad(in, "invalid fptosi %s -> %s", from, to)
		}
	case OpBitcast:
		if fs.ScalarBits() != ts.ScalarBits() {
			bad(in, "invalid bitcast %s -> %s", from, to)
		}
	case OpPtrToInt:
		if !fs.IsPointer() || !ts.IsInt() {
			bad(in, "invalid ptrtoint %s -> %s", from, to)
		}
	case OpIntToPtr:
		if !fs.IsInt() || !ts.IsPointer() {
			bad(in, "invalid inttoptr %s -> %s", from, to)
		}
	}
}
