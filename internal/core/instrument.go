package core

import (
	"fmt"
	"strconv"

	"vulfi/internal/ir"
	"vulfi/internal/passes"
)

// LaneSite is one runtime fault site: a (site, lane) pair. The runtime
// site ID indexes this table.
type LaneSite struct {
	ID   int
	Site *Site
	Lane int
}

// Instrumentation is the result of instrumenting a module: the lane-site
// table whose IDs the inserted injectFault* calls carry.
type Instrumentation struct {
	Sites     []*Site
	LaneSites []LaneSite
	Category  passes.Category
	// WholeRegister is the ablation mode treating a vector L-value as a
	// single fault site instead of Vl lane sites.
	WholeRegister bool
	// MaskOblivious is the ablation mode that ignores execution masks
	// when counting dynamic sites (every lane is always live).
	MaskOblivious bool
}

// InstrumentPass wraps instrumentation as a module pass.
type InstrumentPass struct {
	Category passes.Category
	// WholeRegister / MaskOblivious select the DESIGN.md ablation modes.
	WholeRegister bool
	MaskOblivious bool
	// Out receives the instrumentation table after Run.
	Out *Instrumentation
}

// Name implements passes.Pass.
func (p *InstrumentPass) Name() string {
	return "vulfi-instrument-" + p.Category.String()
}

// Run implements passes.Pass.
func (p *InstrumentPass) Run(m *ir.Module) error {
	sites := SelectSites(EnumerateSites(m, nil), p.Category)
	inst := &Instrumentation{
		Sites:         sites,
		WholeRegister: p.WholeRegister,
		MaskOblivious: p.MaskOblivious,
	}
	if err := inst.run(m); err != nil {
		return err
	}
	inst.Category = p.Category
	if p.Out != nil {
		*p.Out = *inst
	}
	return nil
}

// Instrument rewrites the module so every lane of every selected site
// flows through a runtime injectFault* call, following the paper's
// Figure 4 workflow: clone the value, extract each scalar element,
// pass it (with its execution-mask element) to the runtime API, insert
// the result back, and redirect all users to the instrumented clone.
func Instrument(m *ir.Module, sites []*Site) (*Instrumentation, error) {
	inst := &Instrumentation{Sites: sites}
	if err := inst.run(m); err != nil {
		return nil, err
	}
	return inst, nil
}

func (inst *Instrumentation) run(m *ir.Module) error {
	var at cursor
	for _, s := range inst.Sites {
		if err := inst.instrumentSite(m, s, &at); err != nil {
			return fmt.Errorf("site %d (%s): %w", s.ID, s.Instr, err)
		}
	}
	return nil
}

func (inst *Instrumentation) newLaneSite(s *Site, lane int) *ir.Const {
	id := len(inst.LaneSites)
	inst.LaneSites = append(inst.LaneSites, LaneSite{ID: id, Site: s, Lane: lane})
	return ir.ConstInt(ir.I32, int64(id))
}

// cursor is one instrumentation run's scratch state. It remembers
// where the last chain went into its block: sites arrive in block
// order, so the next site of the same block is found by scanning
// forward from there, and each block is scanned once in total however
// many chains it gets.
type cursor struct {
	blk *ir.Block
	at  int
	// phis counts blk's leading phis, the index a phi site's chain
	// goes in at.
	phis int
	// lanes caches what every site's chain shares for each lane.
	lanes []chainLane
}

// position returns the block and index where s's chain goes: before
// the store for stored-value targets; otherwise right after the
// defining instruction (after the phi section when the L-value is a
// phi).
func (c *cursor) position(s *Site) (*ir.Block, int, error) {
	b := s.Instr.Parent
	if b == nil {
		return nil, 0, fmt.Errorf("instruction is in no block")
	}
	if b != c.blk {
		c.blk, c.at, c.phis = b, 0, 0
		for c.phis < len(b.Instrs) && b.Instrs[c.phis].Op == ir.OpPhi {
			c.phis++
		}
	}
	if s.ValueOperand < 0 && s.Instr.Op == ir.OpPhi {
		c.at = c.phis
		return b, c.at, nil
	}
	i := b.IndexFrom(s.Instr, c.at)
	if i < 0 {
		return nil, 0, fmt.Errorf("instruction is not in its block %s", b.Nam)
	}
	if s.ValueOperand < 0 {
		i++
	}
	c.at = i
	return b, i, nil
}

// chainLane is what every site's chain shares for one lane: the lane
// index constant and the name hints of the lane's values.
type chainLane struct {
	idx                                 *ir.Const
	ext, extmask, actcmp, act, inj, ins string
}

// lane returns the shared parts of lane's chain, building them once per
// instrumentation run rather than once per site.
func (c *cursor) lane(lane int) *chainLane {
	for n := len(c.lanes); n <= lane; n = len(c.lanes) {
		l := strconv.Itoa(n)
		c.lanes = append(c.lanes, chainLane{
			idx: ir.ConstInt(ir.I32, int64(n)),
			ext: "ext" + l, extmask: "extmask" + l, actcmp: "actcmp" + l,
			act: "act" + l, inj: "inj" + l, ins: "ins" + l,
		})
	}
	return &c.lanes[lane]
}

func (inst *Instrumentation) instrumentSite(m *ir.Module, s *Site, at *cursor) error {
	v := s.Value()
	ty := v.Type()
	b, i, err := at.position(s)
	if err != nil {
		return err
	}
	// The L-value's users, taken before the chain exists: redirecting
	// exactly these leaves the chain itself reading the original value.
	var users []ir.Use
	if s.ValueOperand < 0 {
		users = s.Instr.Uses()
	}
	bu := ir.NewBuilderAt(b, i)

	var maskVal ir.Value
	if s.MaskOperand >= 0 {
		maskVal = s.Instr.Operand(s.MaskOperand)
	}

	one := ir.ConstInt(ir.I32, 1)
	var result ir.Value
	if !ty.IsVector() || inst.WholeRegister {
		// Scalar site — or the whole-register ablation, where the entire
		// vector register is a single fault site.
		fn := injectDecl(m, ty)
		result = bu.Call(fn, "inj_s"+strconv.Itoa(s.ID), v, one, inst.newLaneSite(s, 0))
	} else {
		fn := injectDecl(m, ty.Elem)
		cur := v
		for lane := 0; lane < ty.Len; lane++ {
			l := at.lane(lane)
			ext := bu.ExtractElement(cur, l.idx, l.ext)
			var active ir.Value = one
			if maskVal != nil && !inst.MaskOblivious {
				extm := bu.ExtractElement(maskVal, l.idx, l.extmask)
				neg := bu.ICmp(ir.IntSLT, extm,
					ir.ConstInt(maskVal.Type().Elem, 0), l.actcmp)
				active = bu.Cast(ir.OpZExt, neg, ir.I32, l.act)
			}
			inj := bu.Call(fn, l.inj, ext, active, inst.newLaneSite(s, lane))
			cur = bu.InsertElement(cur, inj, l.idx, l.ins)
		}
		result = cur
	}

	// Redirect users to the instrumented clone.
	if s.ValueOperand >= 0 {
		s.Instr.SetOperand(s.ValueOperand, result)
	}
	for _, u := range users {
		u.User.SetOperand(u.Index, result)
	}
	return nil
}

// injectDecl returns (declaring on first use) the runtime injection API
// function for scalar type ty: T injectFault<Ty>(T value, i32 active,
// i32 siteID). Names follow the paper's Figure 5.
func injectDecl(m *ir.Module, ty *ir.Type) *ir.Func {
	name := injectName(ty)
	if f := m.Func(name); f != nil {
		return f
	}
	f := ir.NewDecl(name, ty, ty, ir.I32, ir.I32)
	m.AddFunc(f)
	return f
}

func injectName(ty *ir.Type) string {
	switch ty {
	case ir.F32:
		return "injectFaultFloatTy"
	case ir.F64:
		return "injectFaultDoubleTy"
	case ir.I32:
		return "injectFaultIntTy"
	case ir.I64:
		return "injectFaultLongTy"
	case ir.I16:
		return "injectFaultShortTy"
	case ir.I8:
		return "injectFaultCharTy"
	case ir.I1:
		return "injectFaultBoolTy"
	}
	if ty.IsPointer() {
		return "injectFaultPtrTy." + ty.Elem.String()
	}
	if ty.IsVector() {
		// Whole-register ablation mode.
		return fmt.Sprintf("injectFaultVecTy.v%d%s", ty.Len, ty.Elem)
	}
	panic("core: no injection runtime for type " + ty.String())
}
