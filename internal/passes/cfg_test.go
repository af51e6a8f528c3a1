package passes

import (
	"strings"
	"testing"

	"vulfi/internal/ir"
)

// buildDiamondLoop builds:
//
//	entry -> header -> {then, else} -> latch -> header | exit
func buildDiamondLoop() (*ir.Func, map[string]*ir.Block) {
	f := ir.NewFunc("f", ir.Void, []*ir.Type{ir.I32}, []string{"n"})
	blocks := map[string]*ir.Block{}
	for _, nm := range []string{"entry", "header", "then", "else", "latch", "exit"} {
		blocks[nm] = f.NewBlock(nm)
	}
	bu := ir.NewBuilder(blocks["entry"])
	bu.Br(blocks["header"])

	bu.SetBlock(blocks["header"])
	i := bu.Phi(ir.I32, "i")
	c := bu.ICmp(ir.IntSLT, i, f.Params[0], "c")
	bu.CondBr(c, blocks["then"], blocks["exit"])

	bu.SetBlock(blocks["then"])
	odd := bu.And(i, ir.ConstInt(ir.I32, 1), "odd")
	oc := bu.ICmp(ir.IntNE, odd, ir.ConstInt(ir.I32, 0), "oc")
	bu.CondBr(oc, blocks["else"], blocks["latch"])

	bu.SetBlock(blocks["else"])
	bu.Br(blocks["latch"])

	bu.SetBlock(blocks["latch"])
	i2 := bu.Add(i, ir.ConstInt(ir.I32, 1), "i2")
	bu.Br(blocks["header"])

	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), blocks["entry"])
	ir.AddIncoming(i, i2, blocks["latch"])

	bu.SetBlock(blocks["exit"])
	bu.Ret(nil)
	return f, blocks
}

// defUse adds %d = add 1, 2 at the end of block def and %u = add %d, 1
// at the end of block use, each before its block's terminator.
func defUse(def, use *ir.Block) {
	d := ir.NewBuilderBefore(def.Terminator()).Add(
		ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2), "d")
	ir.NewBuilderBefore(use.Terminator()).Add(d, ir.ConstInt(ir.I32, 1), "u")
}

// TestDominators: over the diamond loop, ir.Verify accepts a use
// exactly when the block defining its operand dominates it.
func TestDominators(t *testing.T) {
	for _, c := range []struct {
		def, use string
		ok       bool
	}{
		{"entry", "exit", true},
		{"header", "latch", true},
		{"then", "else", true},
		{"then", "latch", true},
		{"header", "exit", true},
		{"exit", "exit", true},
		{"else", "latch", false}, // the then-path bypasses else
		{"then", "exit", false},  // header exits around then
		{"latch", "header", false},
	} {
		f, b := buildDiamondLoop()
		defUse(b[c.def], b[c.use])
		err := f.Verify()
		if c.ok && err != nil {
			t.Errorf("%s dominates %s, but Verify rejects the use: %v", c.def, c.use, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "@f/"+c.use+": %u = add i32 %d, 1")) {
			t.Errorf("%s does not dominate %s, but Verify says %v", c.def, c.use, err)
		}
	}

	// A phi reads its incoming value at the end of the incoming block:
	// %i's entry edge cannot see a value defined in then.
	f, b := buildDiamondLoop()
	d := ir.NewBuilderBefore(b["then"].Terminator()).Add(
		ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2), "d")
	b["header"].Instrs[0].SetOperand(0, d)
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "incoming %d from %entry") {
		t.Errorf("phi incoming from entry defined in then: Verify says %v", err)
	}
}

// TestDominatorsIgnoreUnreachable: uses in a block the entry cannot
// reach are exempt, but a reachable use of a value defined there is
// not.
func TestDominatorsIgnoreUnreachable(t *testing.T) {
	f, b := buildDiamondLoop()
	dead := f.NewBlock("dead")
	ir.NewBuilder(dead).Ret(nil)
	defUse(b["then"], dead)
	if err := f.Verify(); err != nil {
		t.Errorf("unreachable use rejected: %v", err)
	}

	f, b = buildDiamondLoop()
	dead = f.NewBlock("dead")
	ir.NewBuilder(dead).Br(b["exit"])
	defUse(dead, b["exit"])
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "not dominated by its definition in %dead") {
		t.Errorf("reachable use of an unreachable definition: Verify says %v", err)
	}
}

func TestWriteDOT(t *testing.T) {
	f, _ := buildDiamondLoop()
	var sb strings.Builder
	if err := WriteDOT(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		`digraph "f"`, `"entry" -> "header"`,
		`"header" -> "then" [label="T"]`, `"header" -> "exit" [label="F"]`,
		`"latch" -> "header"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, out)
		}
	}
	decl := ir.NewDecl("d", ir.Void)
	if err := WriteDOT(&sb, decl); err == nil {
		t.Error("rendering a declaration should fail")
	}
}
