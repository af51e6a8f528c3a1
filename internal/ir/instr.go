package ir

import "fmt"

// Op enumerates instruction opcodes. The set mirrors the LLVM 3.2
// instructions the VULFI paper manipulates, plus the casts and intrinsic
// call machinery the code generator needs.
type Op int

// Opcodes.
const (
	OpInvalid Op = iota

	// Integer arithmetic / bitwise.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFRem

	// Comparisons and selection.
	OpICmp
	OpFCmp
	OpSelect

	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP

	// Vector element manipulation.
	OpExtractElement
	OpInsertElement
	OpShuffleVector

	// Casts.
	OpTrunc
	OpZExt
	OpSExt
	OpFPTrunc
	OpFPExt
	OpSIToFP
	OpFPToSI
	OpBitcast
	OpPtrToInt
	OpIntToPtr

	// Control flow and calls.
	OpPhi
	OpCall
	OpBr
	OpCondBr
	OpRet
	OpUnreachable

	// NumOps is one past the largest opcode: the length of a dense
	// per-opcode table indexed by Op (profilers, dispatch tables).
	NumOps
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpUDiv: "udiv", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFRem: "frem",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpExtractElement: "extractelement", OpInsertElement: "insertelement",
	OpShuffleVector: "shufflevector",
	OpTrunc:         "trunc", OpZExt: "zext", OpSExt: "sext", OpFPTrunc: "fptrunc",
	OpFPExt: "fpext", OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpBitcast: "bitcast",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpPhi: "phi", OpCall: "call", OpBr: "br", OpCondBr: "br", OpRet: "ret",
	OpUnreachable: "unreachable",
}

// String returns the LLVM mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the opcode terminates a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// IsCast reports whether the opcode is a cast.
func (o Op) IsCast() bool {
	switch o {
	case OpTrunc, OpZExt, OpSExt, OpFPTrunc, OpFPExt, OpSIToFP, OpFPToSI,
		OpBitcast, OpPtrToInt, OpIntToPtr:
		return true
	}
	return false
}

// Pred is a comparison predicate shared by icmp and fcmp.
type Pred int

// Comparison predicates. Integer predicates are signed unless prefixed U;
// float predicates are "ordered" (NaN compares false except for UNE).
const (
	PredInvalid Pred = iota
	IntEQ
	IntNE
	IntSLT
	IntSLE
	IntSGT
	IntSGE
	IntULT
	IntULE
	IntUGT
	IntUGE
	FloatOEQ
	FloatONE
	FloatOLT
	FloatOLE
	FloatOGT
	FloatOGE
	FloatUNE
)

var predNames = map[Pred]string{
	IntEQ: "eq", IntNE: "ne", IntSLT: "slt", IntSLE: "sle", IntSGT: "sgt",
	IntSGE: "sge", IntULT: "ult", IntULE: "ule", IntUGT: "ugt", IntUGE: "uge",
	FloatOEQ: "oeq", FloatONE: "one", FloatOLT: "olt", FloatOLE: "ole",
	FloatOGT: "ogt", FloatOGE: "oge", FloatUNE: "une",
}

// String returns the LLVM spelling of the predicate.
func (p Pred) String() string {
	if s, ok := predNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Use records a single use of a value: operand Index of instruction User.
type Use struct {
	User  *Instr
	Index int
}

// Instr is a single IR instruction. An instruction with a non-void type is
// itself the SSA value it defines (its "L-value" in the paper's terms).
type Instr struct {
	Op  Op
	Ty  *Type // result type; Void for store/br/ret/...
	Nam string

	ops  []Value
	uses []Use
	// nvec counts the vector-typed operands (see IsVectorInstr), and
	// slot is one more than the instruction's dense index in its
	// function (see Slot), 0 until the instruction first enters a block.
	// Two int32s keep Instr in its allocation size class.
	nvec, slot int32

	Parent *Block

	// Pred is the predicate for icmp/fcmp.
	Pred Pred
	// Callee is the called function for OpCall.
	Callee *Func
	// Succs are the successor blocks for br/condbr, or the incoming blocks
	// for phi (parallel to the operand list).
	Succs []*Block
	// AllocElem/AllocCount describe an alloca's storage.
	AllocElem  *Type
	AllocCount int
	// ShuffleMask is the constant lane mask of a shufflevector; -1 = undef.
	ShuffleMask []int
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Ty }

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Nam }

// NumOperands returns the operand count.
func (in *Instr) NumOperands() int { return len(in.ops) }

// Operand returns the i-th operand.
func (in *Instr) Operand(i int) Value { return in.ops[i] }

// Slot returns the instruction's dense index within its function, in
// [0, Func.NumSlots()), or -1 for an instruction never placed in a
// block. The IR assigns it from the function's counter each time the
// instruction enters a block (Append, InsertBefore, InsertAfter), so no
// two instructions of a function share one; an instruction moved to
// another function gets a fresh slot there. Executors index per-call
// value storage by it.
func (in *Instr) Slot() int { return int(in.slot) - 1 }

// AddOperand appends an operand, maintaining use lists.
func (in *Instr) AddOperand(v Value) {
	in.ops = append(in.ops, v)
	addUse(v, Use{in, len(in.ops) - 1})
	if isVec(v) {
		in.nvec++
	}
}

// SetOperand replaces the i-th operand, maintaining use lists.
func (in *Instr) SetOperand(i int, v Value) {
	if old := in.ops[i]; old != nil {
		removeUse(old, Use{in, i})
	}
	if isVec(in.ops[i]) {
		in.nvec--
	}
	in.ops[i] = v
	addUse(v, Use{in, i})
	if isVec(v) {
		in.nvec++
	}
}

// isVec reports whether v is a non-nil operand of vector type.
func isVec(v Value) bool {
	if v == nil {
		return false
	}
	t := v.Type()
	return t != nil && t.IsVector()
}

// Uses returns a copy of the list of uses of this instruction's result.
func (in *Instr) Uses() []Use {
	out := make([]Use, len(in.uses))
	copy(out, in.uses)
	return out
}

// NumUses returns the number of recorded uses of this instruction's result.
func (in *Instr) NumUses() int { return len(in.uses) }

func (in *Instr) addUse(u Use)    { in.uses = append(in.uses, u) }
func (in *Instr) removeUse(u Use) { in.uses = deleteUse(in.uses, u) }

// useTracked is implemented by values that record their uses.
type useTracked interface {
	addUse(Use)
	removeUse(Use)
}

func addUse(v Value, u Use) {
	if t, ok := v.(useTracked); ok {
		t.addUse(u)
	}
}

func removeUse(v Value, u Use) {
	if t, ok := v.(useTracked); ok {
		t.removeUse(u)
	}
}

func deleteUse(uses []Use, u Use) []Use {
	for i, x := range uses {
		if x == u {
			return append(uses[:i], uses[i+1:]...)
		}
	}
	return uses
}

// ReplaceAllUsesWith redirects every use of this instruction's result to nv.
// This is the rewrite step of VULFI's instrumentation workflow (Figure 4:
// "replaces the original vector register with its new cloned and
// instrumented version, redirecting all the users").
func (in *Instr) ReplaceAllUsesWith(nv Value) {
	for len(in.uses) > 0 {
		u := in.uses[len(in.uses)-1]
		u.User.SetOperand(u.Index, nv)
	}
}

// dropAllOperandUses removes this instruction's entries from its operands'
// use lists; called when the instruction is removed from a block.
func (in *Instr) dropAllOperandUses() {
	for i, op := range in.ops {
		if op != nil {
			removeUse(op, Use{in, i})
		}
	}
}

// IsVectorInstr reports whether the instruction has at least one operand of
// vector type or produces a vector (the paper's definition of a "vector
// instruction": at least one vector type operand). AddOperand and
// SetOperand keep the vector operands counted, so it costs O(1).
func (in *Instr) IsVectorInstr() bool {
	return in.nvec > 0 || in.Ty != nil && in.Ty.IsVector()
}

// Parameters also participate in the use-def graph so that forward slices
// can start at parameter values.

func (p *Param) addUse(u Use)    { p.uses = append(p.uses, u) }
func (p *Param) removeUse(u Use) { p.uses = deleteUse(p.uses, u) }

// Uses returns the recorded uses of a parameter.
func (p *Param) Uses() []Use {
	out := make([]Use, len(p.uses))
	copy(out, p.uses)
	return out
}
