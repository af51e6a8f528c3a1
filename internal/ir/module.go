package ir

import (
	"fmt"
	"strconv"
)

// Module is a translation unit: a set of functions and globals.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	funcByName map[string]*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcByName: map[string]*Func{}}
}

// AddFunc adds f to the module and numbers it by its index in Funcs
// (see Func.Num). Function names must be unique.
func (m *Module) AddFunc(f *Func) {
	if m.funcByName == nil {
		m.funcByName = map[string]*Func{}
	}
	if _, dup := m.funcByName[f.Nam]; dup {
		panic("ir: duplicate function " + f.Nam)
	}
	f.Module = m
	f.num = len(m.Funcs)
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.Nam] = f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	return m.funcByName[name]
}

// Has reports whether f is one of m's functions: the one numbered
// f.Num() in Funcs.
func (m *Module) Has(f *Func) bool {
	return m != nil && f.num >= 0 && f.num < len(m.Funcs) && m.Funcs[f.num] == f
}

// AddGlobal registers a global storage object.
func (m *Module) AddGlobal(g *Global) {
	m.Globals = append(m.Globals, g)
}

// Func is a function definition or declaration.
type Func struct {
	Nam    string
	Sig    *Type // FuncKind
	Params []*Param
	Blocks []*Block
	Module *Module

	// IsDecl marks external declarations (intrinsics, runtime API) that
	// have no body and are dispatched by the interpreter.
	IsDecl bool
	// Intrinsic marks LLVM-style intrinsics (name starts with "llvm.").
	Intrinsic bool

	// num is the function's index in its module's Funcs (see Num).
	num       int
	nameSeq   int
	nameCount map[string]int
	// nslots counts the slots handed out to instructions (see
	// Instr.Slot).
	nslots int
}

// NewFunc creates a function with fresh parameters named after names.
func NewFunc(name string, ret *Type, paramTypes []*Type, paramNames []string) *Func {
	f := &Func{Nam: name, Sig: FuncOf(ret, paramTypes...), num: -1}
	for i, pt := range paramTypes {
		pn := fmt.Sprintf("arg%d", i)
		if i < len(paramNames) && paramNames[i] != "" {
			pn = paramNames[i]
		}
		f.Params = append(f.Params, &Param{Nam: pn, Ty: pt, Index: i})
	}
	return f
}

// NewDecl creates an external declaration (no body).
func NewDecl(name string, ret *Type, paramTypes ...*Type) *Func {
	f := NewFunc(name, ret, paramTypes, nil)
	f.IsDecl = true
	if len(name) > 5 && name[:5] == "llvm." {
		f.Intrinsic = true
	}
	return f
}

// Type implements Value.
func (f *Func) Type() *Type { return f.Sig }

// Ident implements Value.
func (f *Func) Ident() string { return "@" + f.Nam }

// RetType returns the function's return type.
func (f *Func) RetType() *Type { return f.Sig.Ret }

// Entry returns the entry block (first block), or nil for declarations.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Num returns the function's index in its module's Funcs, which
// AddFunc assigns, or -1 before it is added. Interpreters index their
// per-function tables by it.
func (f *Func) Num() int { return f.num }

// NumSlots returns the number of instruction slots the function has
// handed out: every instruction placed in one of its blocks has a slot
// below it. Slots are never reused, so a removed instruction leaves a
// hole.
func (f *Func) NumSlots() int { return f.nslots }

// NewBlock appends a new basic block with the given name to the function.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Nam: name, Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// BlockByName returns the block with the given name, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Nam == name {
			return b
		}
	}
	return nil
}

// nextName returns a fresh auto-generated value name.
func (f *Func) nextName(prefix string) string {
	f.nameSeq++
	return prefix + strconv.Itoa(f.nameSeq)
}

// uniqueName reserves hint as a value name: the first use is returned
// verbatim, repeats get a ".N" suffix.
func (f *Func) uniqueName(hint string) string {
	if f.nameCount == nil {
		f.nameCount = map[string]int{}
	}
	n := f.nameCount[hint] + 1
	f.nameCount[hint] = n
	if n > 1 {
		return hint + "." + strconv.Itoa(n)
	}
	return hint
}

// Instrs returns all instructions of the function in block order.
func (f *Func) Instrs() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// Block is a basic block: a straight-line instruction list ending in a
// terminator.
type Block struct {
	Nam    string
	Instrs []*Instr
	Func   *Func
}

// Type implements Value (blocks appear as branch targets).
func (b *Block) Type() *Type { return Label }

// Ident implements Value.
func (b *Block) Ident() string { return "%" + b.Nam }

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) {
	b.place(in)
	b.Instrs = append(b.Instrs, in)
}

// place makes in a member of b, with a fresh slot from b's function.
func (b *Block) place(in *Instr) {
	in.Parent = b
	if f := b.Func; f != nil {
		f.nslots++
		in.slot = int32(f.nslots)
	}
}

// InsertBefore inserts in immediately before pos within the block.
// It panics if pos is not in the block.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	b.insertAt(in, b.indexOf(pos))
}

// InsertAfter inserts in immediately after pos within the block.
func (b *Block) InsertAfter(in *Instr, pos *Instr) {
	b.insertAt(in, b.indexOf(pos)+1)
}

// insertAt places in at index i of the block, shifting the rest down.
func (b *Block) insertAt(in *Instr, i int) {
	b.place(in)
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Remove deletes in from the block and drops its operand uses.
func (b *Block) Remove(in *Instr) {
	idx := b.indexOf(in)
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
	in.dropAllOperandUses()
	in.Parent = nil
}

func (b *Block) indexOf(in *Instr) int {
	if i := b.IndexFrom(in, 0); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("ir: instruction %%%s not in block %s", in.Nam, b.Nam))
}

// IndexFrom returns in's index in the block, or -1 when in is not in
// it. The search starts at hint and wraps to the block's start, so a
// pass that visits a block's instructions in order and passes the last
// index it found scans the block once in total.
func (b *Block) IndexFrom(in *Instr, hint int) int {
	if hint < 0 || hint > len(b.Instrs) {
		hint = 0
	}
	for i := hint; i < len(b.Instrs); i++ {
		if b.Instrs[i] == in {
			return i
		}
	}
	for i := 0; i < hint; i++ {
		if b.Instrs[i] == in {
			return i
		}
	}
	return -1
}

// Terminator returns the block's terminator instruction, or nil if the
// block is not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}
