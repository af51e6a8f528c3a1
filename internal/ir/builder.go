package ir

import "fmt"

// Builder constructs instructions at the end of a block, or — for
// instrumentation passes — at a fixed position inside one.
type Builder struct {
	blk *Block
	// at is the index in blk.Instrs where the next instruction goes, or
	// -1 to append at the end. Each emit advances it, so a chain lands
	// in emission order without searching the block again.
	at int
}

// NewBuilder returns a builder positioned at the end of b.
func NewBuilder(b *Block) *Builder { return &Builder{blk: b, at: -1} }

// NewBuilderAt returns a builder that inserts instructions at index i
// of b (in emission order), for a pass that already knows the index.
func NewBuilderAt(b *Block, i int) *Builder { return &Builder{blk: b, at: i} }

// NewBuilderBefore returns a builder that inserts instructions
// immediately before pos (in emission order).
func NewBuilderBefore(pos *Instr) *Builder {
	return &Builder{blk: pos.Parent, at: pos.Parent.indexOf(pos)}
}

// NewBuilderAfter returns a builder that inserts instructions immediately
// after pos (in emission order).
func NewBuilderAfter(pos *Instr) *Builder {
	return &Builder{blk: pos.Parent, at: pos.Parent.indexOf(pos) + 1}
}

// SetBlock repositions the builder at the end of b.
func (bu *Builder) SetBlock(b *Block) {
	bu.blk, bu.at = b, -1
}

// Block returns the builder's current block.
func (bu *Builder) Block() *Block { return bu.blk }

func (bu *Builder) name(hint string) string {
	if hint != "" {
		return bu.blk.Func.uniqueName(hint)
	}
	return bu.blk.Func.nextName("t")
}

func (bu *Builder) emit(in *Instr) *Instr {
	if bu.at < 0 {
		bu.blk.Append(in)
	} else {
		bu.blk.insertAt(in, bu.at)
		bu.at++
	}
	return in
}

func newInstr(op Op, ty *Type, name string, ops ...Value) *Instr {
	in := &Instr{Op: op, Ty: ty, Nam: name}
	if len(ops) > 0 {
		in.ops = make([]Value, 0, len(ops))
		for _, v := range ops {
			in.AddOperand(v)
		}
	}
	return in
}

// Bin emits a binary arithmetic/bitwise instruction. Operand types must
// match; the result has the operand type.
func (bu *Builder) Bin(op Op, x, y Value, name string) *Instr {
	if x.Type() != y.Type() {
		panic(fmt.Sprintf("ir.Bin %s: operand type mismatch %s vs %s",
			op, x.Type(), y.Type()))
	}
	return bu.emit(newInstr(op, x.Type(), bu.name(name), x, y))
}

// Convenience binary emitters.
func (bu *Builder) Add(x, y Value, name string) *Instr  { return bu.Bin(OpAdd, x, y, name) }
func (bu *Builder) Sub(x, y Value, name string) *Instr  { return bu.Bin(OpSub, x, y, name) }
func (bu *Builder) Mul(x, y Value, name string) *Instr  { return bu.Bin(OpMul, x, y, name) }
func (bu *Builder) SDiv(x, y Value, name string) *Instr { return bu.Bin(OpSDiv, x, y, name) }
func (bu *Builder) SRem(x, y Value, name string) *Instr { return bu.Bin(OpSRem, x, y, name) }
func (bu *Builder) And(x, y Value, name string) *Instr  { return bu.Bin(OpAnd, x, y, name) }
func (bu *Builder) Or(x, y Value, name string) *Instr   { return bu.Bin(OpOr, x, y, name) }
func (bu *Builder) Xor(x, y Value, name string) *Instr  { return bu.Bin(OpXor, x, y, name) }
func (bu *Builder) Shl(x, y Value, name string) *Instr  { return bu.Bin(OpShl, x, y, name) }
func (bu *Builder) AShr(x, y Value, name string) *Instr { return bu.Bin(OpAShr, x, y, name) }
func (bu *Builder) FAdd(x, y Value, name string) *Instr { return bu.Bin(OpFAdd, x, y, name) }
func (bu *Builder) FSub(x, y Value, name string) *Instr { return bu.Bin(OpFSub, x, y, name) }
func (bu *Builder) FMul(x, y Value, name string) *Instr { return bu.Bin(OpFMul, x, y, name) }
func (bu *Builder) FDiv(x, y Value, name string) *Instr { return bu.Bin(OpFDiv, x, y, name) }

// ICmp emits an integer comparison; the result is i1 (or a vector of i1
// for vector operands).
func (bu *Builder) ICmp(pred Pred, x, y Value, name string) *Instr {
	rt := I1
	if x.Type().IsVector() {
		rt = Vec(I1, x.Type().Len)
	}
	in := newInstr(OpICmp, rt, bu.name(name), x, y)
	in.Pred = pred
	return bu.emit(in)
}

// FCmp emits a float comparison (i1 / vector-of-i1 result).
func (bu *Builder) FCmp(pred Pred, x, y Value, name string) *Instr {
	rt := I1
	if x.Type().IsVector() {
		rt = Vec(I1, x.Type().Len)
	}
	in := newInstr(OpFCmp, rt, bu.name(name), x, y)
	in.Pred = pred
	return bu.emit(in)
}

// Select emits select cond, t, f. cond is i1 or a vector of i1 matching
// the value lane count (lane-wise blend).
func (bu *Builder) Select(cond, t, f Value, name string) *Instr {
	if t.Type() != f.Type() {
		panic("ir.Select: arm type mismatch")
	}
	ct := cond.Type()
	if ct != I1 && !(ct.IsVector() && ct.Elem == I1) {
		panic("ir.Select: condition must be i1 or a vector of i1, got " + ct.String())
	}
	return bu.emit(newInstr(OpSelect, t.Type(), bu.name(name), cond, t, f))
}

// Alloca emits stack storage for count cells of type elem; the result is
// a pointer to elem.
func (bu *Builder) Alloca(elem *Type, count int, name string) *Instr {
	in := newInstr(OpAlloca, Ptr(elem), bu.name(name))
	in.AllocElem = elem
	in.AllocCount = count
	return bu.emit(in)
}

// Load emits a load through ptr; the result type is the pointee type.
func (bu *Builder) Load(ptr Value, name string) *Instr {
	pt := ptr.Type()
	if !pt.IsPointer() {
		panic("ir.Load: operand is not a pointer: " + pt.String())
	}
	return bu.emit(newInstr(OpLoad, pt.Elem, bu.name(name), ptr))
}

// Store emits a store of val through ptr. Stores have no L-value; per the
// paper's fault model the *stored value* operand is the injection target.
func (bu *Builder) Store(val, ptr Value) *Instr {
	pt := ptr.Type()
	if !pt.IsPointer() || pt.Elem != val.Type() {
		panic(fmt.Sprintf("ir.Store: type mismatch storing %s through %s",
			val.Type(), pt))
	}
	return bu.emit(newInstr(OpStore, Void, "", val, ptr))
}

// GEP emits getelementptr: base pointer plus element index (scaled by the
// pointee size). The result has the same pointer type as base.
func (bu *Builder) GEP(base, index Value, name string) *Instr {
	if !base.Type().IsPointer() {
		panic("ir.GEP: base is not a pointer")
	}
	if !index.Type().IsInt() {
		panic("ir.GEP: index is not an integer")
	}
	return bu.emit(newInstr(OpGEP, base.Type(), bu.name(name), base, index))
}

// ExtractElement emits extraction of the idx-th lane of vec.
func (bu *Builder) ExtractElement(vec, idx Value, name string) *Instr {
	vt := vec.Type()
	if !vt.IsVector() {
		panic("ir.ExtractElement: operand is not a vector")
	}
	return bu.emit(newInstr(OpExtractElement, vt.Elem, bu.name(name), vec, idx))
}

// InsertElement emits insertion of elt at lane idx of vec.
func (bu *Builder) InsertElement(vec, elt, idx Value, name string) *Instr {
	vt := vec.Type()
	if !vt.IsVector() || vt.Elem != elt.Type() {
		panic("ir.InsertElement: type mismatch")
	}
	return bu.emit(newInstr(OpInsertElement, vt, bu.name(name), vec, elt, idx))
}

// ShuffleVector emits a shuffle of v1/v2 with a constant lane mask
// (-1 lanes produce undef).
func (bu *Builder) ShuffleVector(v1, v2 Value, mask []int, name string) *Instr {
	vt := v1.Type()
	if !vt.IsVector() || v2.Type() != vt {
		panic("ir.ShuffleVector: operands must be vectors of the same type")
	}
	in := newInstr(OpShuffleVector, Vec(vt.Elem, len(mask)), bu.name(name), v1, v2)
	in.ShuffleMask = append([]int(nil), mask...)
	return bu.emit(in)
}

// Broadcast emits the uniform-variable broadcast pattern of the paper's
// Figure 9: insertelement into lane 0 of undef, then shufflevector with a
// zeroinitializer mask. Returns the broadcast vector.
func (bu *Builder) Broadcast(scalar Value, lanes int, name string) *Instr {
	if name == "" {
		name = bu.blk.Func.nextName("t")
	}
	vt := Vec(scalar.Type(), lanes)
	init := bu.InsertElement(UndefValue(vt), scalar, ConstInt(I32, 0),
		name+"_broadcast_init")
	mask := make([]int, lanes)
	return bu.ShuffleVector(init, UndefValue(vt), mask, name+"_broadcast")
}

// Cast emits a cast instruction of the given opcode to type to.
func (bu *Builder) Cast(op Op, v Value, to *Type, name string) *Instr {
	if !op.IsCast() {
		panic("ir.Cast: not a cast opcode: " + op.String())
	}
	return bu.emit(newInstr(op, to, bu.name(name), v))
}

// Phi emits an empty phi of type ty; use AddIncoming to populate it.
func (bu *Builder) Phi(ty *Type, name string) *Instr {
	return bu.emit(newInstr(OpPhi, ty, bu.name(name)))
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir.AddIncoming: not a phi")
	}
	phi.AddOperand(v)
	phi.Succs = append(phi.Succs, pred)
}

// Call emits a call to fn with args.
func (bu *Builder) Call(fn *Func, name string, args ...Value) *Instr {
	nm := ""
	if !fn.RetType().IsVoid() {
		nm = bu.name(name)
	}
	in := newInstr(OpCall, fn.RetType(), nm, args...)
	in.Callee = fn
	return bu.emit(in)
}

// Br emits an unconditional branch.
func (bu *Builder) Br(target *Block) *Instr {
	in := newInstr(OpBr, Void, "")
	in.Succs = []*Block{target}
	return bu.emit(in)
}

// CondBr emits a conditional branch on an i1 condition.
func (bu *Builder) CondBr(cond Value, then, els *Block) *Instr {
	if cond.Type() != I1 {
		panic("ir.CondBr: condition must be i1")
	}
	in := newInstr(OpCondBr, Void, "", cond)
	in.Succs = []*Block{then, els}
	return bu.emit(in)
}

// Ret emits a return; v is nil for void functions.
func (bu *Builder) Ret(v Value) *Instr {
	if v == nil {
		return bu.emit(newInstr(OpRet, Void, ""))
	}
	return bu.emit(newInstr(OpRet, Void, "", v))
}

// Unreachable emits an unreachable terminator.
func (bu *Builder) Unreachable() *Instr {
	return bu.emit(newInstr(OpUnreachable, Void, ""))
}
