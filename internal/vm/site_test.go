package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// chainKernel builds main(n, pre) and instruments four fault sites in
// its loop with core.Instrument: an unmasked 8-lane float site (an AVX
// register), a masked 8-lane float site (the result of @blend, masked
// by its second operand), a 4-lane integer site (an SSE register) and
// a scalar site. The mask of loop iteration i makes lane j live when
// (i+j) mod 5 < 2·(i mod 4): no lane, some lanes or every lane.
//
// Before the loop, pad straight-line adds and a prefix loop of pre+1
// four-instruction iterations shift every later instruction's dynamic
// index by pad + 4·pre, so sweeping pad over 0..3 and pre upwards puts
// a 1,024-instruction budget boundary at every offset of the loop's
// first iteration, and so inside every chain at every position. The
// returned set holds the loop's chain instructions.
func chainKernel(t *testing.T, pad int) (*ir.Module, *core.Instrumentation, map[*ir.Instr]bool) {
	t.Helper()
	f32x8, i32x8, i32x4 := ir.Vec(ir.F32, 8), ir.Vec(ir.I32, 8), ir.Vec(ir.I32, 4)
	mod := ir.NewModule("chains")
	blend := ir.NewDecl("blend", f32x8, f32x8, i32x8)
	outF := ir.NewDecl("vulfi.out.f32", ir.Void, f32x8)
	outV := ir.NewDecl("vulfi.out.v4i32", ir.Void, i32x4)
	mod.AddFunc(blend)
	mod.AddFunc(outF)
	mod.AddFunc(outV)

	f := ir.NewFunc("main", ir.I32, []*ir.Type{ir.I32, ir.I32}, []string{"n", "pre"})
	mod.AddFunc(f)
	n, pre := f.Params[0], f.Params[1]
	entry, prefix := f.NewBlock("entry"), f.NewBlock("prefix")
	loop, exit := f.NewBlock("loop"), f.NewBlock("exit")

	be := ir.NewBuilder(entry)
	for k := 0; k < pad; k++ {
		be.Add(pre, ir.ConstInt(ir.I32, int64(k)), fmt.Sprintf("pad%d", k))
	}
	be.Br(prefix)

	bp := ir.NewBuilder(prefix)
	p := bp.Phi(ir.I32, "p")
	pn := bp.Add(p, ir.ConstInt(ir.I32, 1), "pn")
	bp.CondBr(bp.ICmp(ir.IntSLE, pn, pre, "pc"), prefix, loop)
	ir.AddIncoming(p, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(p, pn, prefix)

	lanes := func(ty *ir.Type, f func(j int) uint64) *ir.Const {
		v := make([]uint64, ty.Len)
		for j := range v {
			v[j] = f(j)
		}
		return ir.ConstVec(ty, v)
	}
	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	acc := b.Phi(f32x8, "acc")
	accv := b.Phi(i32x4, "accv")
	accs := b.Phi(ir.I32, "accs")
	fi := b.Cast(ir.OpSIToFP, i, ir.F32, "fi")
	a := b.FMul(b.Broadcast(fi, 8, "bf"), lanes(f32x8, func(j int) uint64 {
		return floatBits32(1.5 + float32(j))
	}), "a")
	lim := b.Mul(b.SRem(i, ir.ConstInt(ir.I32, 4), "i4"), ir.ConstInt(ir.I32, 2), "lim")
	st := b.Add(b.Broadcast(i, 8, "bi"), lanes(i32x8, func(j int) uint64 { return uint64(j) }), "st")
	r := b.SRem(st, lanes(i32x8, func(int) uint64 { return 5 }), "r")
	live := b.ICmp(ir.IntSLT, r, b.Broadcast(lim, 8, "blim"), "live")
	mask := b.Cast(ir.OpSExt, live, i32x8, "mask")
	bl := b.Call(blend, "bl", a, mask)
	accN := b.FAdd(acc, bl, "accn")
	s := b.Mul(b.Broadcast(i, 4, "bi4"), lanes(i32x4, func(j int) uint64 { return uint64(j + 1) }), "s")
	accvN := b.Add(accv, s, "accvn")
	k := b.Add(i, ir.ConstInt(ir.I32, 3), "k")
	accsN := b.Add(accs, k, "accsn")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	b.CondBr(b.ICmp(ir.IntSLT, iN, n, "c"), loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), prefix)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(acc, ir.ConstZero(f32x8), prefix)
	ir.AddIncoming(acc, accN, loop)
	ir.AddIncoming(accv, ir.ConstZero(i32x4), prefix)
	ir.AddIncoming(accv, accvN, loop)
	ir.AddIncoming(accs, ir.ConstInt(ir.I32, 0), prefix)
	ir.AddIncoming(accs, accsN, loop)

	bx := ir.NewBuilder(exit)
	bx.Call(outF, "", accN)
	bx.Call(outV, "", accvN)
	bx.Ret(accsN)

	chain := map[*ir.Instr]bool{}
	for _, in := range loop.Instrs {
		chain[in] = true
	}
	inst, err := core.Instrument(mod, []*core.Site{
		{ID: 0, Instr: a, ValueOperand: -1, MaskOperand: -1},
		{ID: 1, Instr: bl, ValueOperand: -1, MaskOperand: 1},
		{ID: 2, Instr: s, ValueOperand: -1, MaskOperand: -1},
		{ID: 3, Instr: k, ValueOperand: -1, MaskOperand: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, in := range loop.Instrs {
		chain[in] = !chain[in]
	}
	for in, ok := range chain {
		if !ok {
			delete(chain, in)
		}
	}
	return mod, inst, chain
}

// blendImpl keeps each lane of its first operand whose mask lane has
// its sign bit set, and zeroes the others.
func blendImpl(_ *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
	out := args[0].Clone()
	for j, m := range args[1].Bits {
		if m>>31&1 == 0 {
			out.Bits[j] = 0
		}
	}
	return out, nil
}

// chainRun is everything observable about one run of a chain kernel:
// the run itself, the plan after it, the pulse schedule and observer
// stream, and how many chains the bulk path counted (none on the tree),
// in the run and in the run before it on the same instance, if any;
// calls lists the lane-site IDs of the run's calls of the plan's
// injectFault* externs with a live lane.
type chainRun struct {
	runOutcome
	sites    uint64
	injected bool
	record   core.InjectionRecord
	visits   []uint64
	pulses   []uint64
	events   []string
	bulk     int
	warm     int
	calls    []int64
}

// chainCase configures one run: the plan to attach, interpreter
// options, whether to record the observer stream, and a hook run after
// the runtime is attached. With rerun, the instance runs main once and
// is reset before the hook, so the hook acts between two runs of one
// instance.
type chainCase struct {
	plan    core.Plan
	budget  uint64
	observe bool
	after   func(it *interp.Interp)
	rerun   bool
}

// runChains runs main(n, pre) of mod on the tree (prog nil) or the vm.
func runChains(t *testing.T, mod *ir.Module, prog *Program, c chainCase, n, pre int64) chainRun {
	t.Helper()
	var r chainRun
	var rec capRecorder
	opts := interp.Options{
		Budget: c.budget,
		Pulse:  func(d uint64) { r.pulses = append(r.pulses, d) },
	}
	if c.observe {
		opts.Observer = &rec
	}
	it, err := interp.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prog != nil {
		Attach(it, prog)
	}
	it.RegisterExtern("blend", blendImpl)
	plan := c.plan
	if plan.Visits != nil {
		plan.Visits = make([]uint64, len(plan.Visits))
	}
	core.AttachRuntime(it, &plan)
	// Record the plan's extern calls and count the chains the bulk path
	// takes, through the plan's own extern and counter.
	for _, f := range mod.Funcs {
		if orig, _ := it.Extern(f); orig.Bulk != nil {
			it.RegisterExtern(f.Nam, func(it *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
				if args[1].Int() != 0 {
					r.calls = append(r.calls, args[2].Int())
				}
				return orig.Fn(it, args)
			})
			it.RegisterBulkCounter(f.Nam, func(n uint64) bool {
				ok := orig.Bulk(n)
				if ok {
					r.bulk++
				}
				return ok
			})
		}
	}
	if c.rerun {
		if _, tr := it.Run("main", interp.IntValue(ir.I32, n), interp.IntValue(ir.I32, pre)); tr != nil {
			t.Fatal(tr)
		}
		if tr := it.Reset(opts); tr != nil {
			t.Fatal(tr)
		}
		r.warm, r.bulk, r.pulses, r.calls, rec.events = r.bulk, 0, nil, nil, nil
	}
	if c.after != nil {
		c.after(it)
	}
	v, tr := it.Run("main", interp.IntValue(ir.I32, n), interp.IntValue(ir.I32, pre))
	r.trap, r.dyn, r.vec, r.output = tr, it.DynInstrs, it.DynVector, it.Output.String()
	if v.Ty != nil {
		r.val = v.String()
	}
	r.sites, r.injected, r.record, r.visits = plan.DynSites, plan.Injected, plan.Record, plan.Visits
	r.events = rec.events
	return r
}

// sameChainRun asserts that the tree and vm runs are indistinguishable.
func sameChainRun(t *testing.T, what string, tree, vm chainRun) {
	t.Helper()
	assertSameOutcome(t, tree.runOutcome, vm.runOutcome)
	if tree.sites != vm.sites || tree.injected != vm.injected || tree.record != vm.record {
		t.Errorf("%s: plan: tree %d sites, injected %v %v; vm %d sites, injected %v %v", what,
			tree.sites, tree.injected, tree.record, vm.sites, vm.injected, vm.record)
	}
	if !slices.Equal(tree.visits, vm.visits) {
		t.Errorf("%s: visits: tree %v, vm %v", what, tree.visits, vm.visits)
	}
	if !slices.Equal(tree.pulses, vm.pulses) {
		t.Errorf("%s: pulses: tree %d, vm %d, first difference at %d", what,
			len(tree.pulses), len(vm.pulses), firstDiff(tree.pulses, vm.pulses))
	}
	if !slices.Equal(tree.events, vm.events) {
		t.Errorf("%s: observer streams: tree %d events, vm %d, first difference at %d", what,
			len(tree.events), len(vm.events), firstDiff(tree.events, vm.events))
	}
	if t.Failed() {
		t.Fatalf("%s: the backends differ", what)
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff[T comparable](a, b []T) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSiteChainTargets puts the fault at every live lane of every chain
// visit, at two bit seeds (the second flips a high bit), and around
// them, and requires both backends to agree on the whole run. Masked-off
// lanes are no dynamic site, so a target never lands on one; the chains
// around them must count past them identically. Every site must have a
// guard and the golden run must take the bulk path, or the rest proves
// nothing.
func TestSiteChainTargets(t *testing.T) {
	mod, inst, _ := chainKernel(t, 0)
	prog := Compile(mod)
	if got := prog.Fused("site"); got != len(inst.Sites) {
		t.Fatalf("%d fused sites, want %d", got, len(inst.Sites))
	}
	const n = 9
	golden := chainCase{plan: core.Plan{Mode: core.CountOnly}}
	tree := runChains(t, mod, nil, golden, n, 0)
	vm := runChains(t, mod, prog, golden, n, 0)
	sameChainRun(t, "golden", tree, vm)
	if vm.bulk == 0 {
		t.Fatal("the golden run counted no chain in bulk")
	}
	for target := uint64(0); target <= tree.sites+1; target++ {
		for _, seed := range []uint64{5, 30 | 3<<24} {
			c := chainCase{plan: core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: seed}}
			what := fmt.Sprintf("target %d seed %#x", target, seed)
			tree, vm := runChains(t, mod, nil, c, n, 0), runChains(t, mod, prog, c, n, 0)
			sameChainRun(t, what, tree, vm)
			if hit := target >= 1 && target <= tree.sites; tree.injected != hit {
				t.Fatalf("%s: injected %v", what, tree.injected)
			}
		}
	}
}

// TestSiteChainBudgetBoundaries sweeps a budget boundary over every
// offset of the loop's first iteration (see chainKernel) and requires
// identical pulse schedules, counts and results on both backends, in a
// golden run, a faulty run, and under a budget of 1,023 instructions,
// which traps at the boundary at 1,024. Every chain instruction, and
// the insert and the shuffle of every broadcast pair, must be where
// some of those traps fired, so the boundary fell at every position of
// every chain and every pair. Where the budget does not trap, the vm
// must call the injection runtime only in the chain visit that holds
// the target, wherever the boundary falls: the guard runs a boundary's
// budget check itself.
func TestSiteChainBudgetBoundaries(t *testing.T) {
	const n = 3
	var chain map[*ir.Instr]bool
	var bcasts []*ir.Instr
	trapped := map[string]bool{}
	for pad := 0; pad < 4; pad++ {
		mod, inst, ch := chainKernel(t, pad)
		chain, bcasts = ch, broadcastPairs(mod)
		prog := Compile(mod)
		for pre := int64(0); pre < 256; pre++ {
			for _, c := range []chainCase{
				{plan: core.Plan{Mode: core.CountOnly}},
				{plan: core.Plan{Mode: core.InjectOnce, TargetDyn: 11, BitSeed: 3}},
				{plan: core.Plan{Mode: core.CountOnly}, budget: 1023},
			} {
				what := fmt.Sprintf("pad %d pre %d target %d budget %d", pad, pre, c.plan.TargetDyn, c.budget)
				tree, vm := runChains(t, mod, nil, c, n, pre), runChains(t, mod, prog, c, n, pre)
				sameChainRun(t, what, tree, vm)
				if tree.trap != nil {
					trapped[tree.trap.Instr] = true
				} else if !onTarget(inst, vm) {
					t.Fatalf("%s: the vm called the injection runtime outside the target's chain: lane sites %v",
						what, vm.calls)
				}
			}
		}
	}
	// The kernels differ only in their pads, so a chain instruction reads
	// the same in each.
	for in := range chain {
		if !trapped[in.String()] {
			t.Errorf("no budget trap fired at %s", in)
		}
	}
	if len(bcasts) != 8 {
		t.Fatalf("%d broadcast instructions, want the 4 pairs' 8", len(bcasts))
	}
	for _, in := range bcasts {
		if !trapped[in.String()] {
			t.Errorf("no budget trap fired at %s", in)
		}
	}
}

// onTarget reports whether r called the injection runtime only in the
// chain visit that holds its target: no call in a run that injected
// nothing, and otherwise calls of the target site's lanes only, no more
// of them than the site has.
func onTarget(inst *core.Instrumentation, r chainRun) bool {
	if !r.injected {
		return len(r.calls) == 0
	}
	site := inst.LaneSites[r.record.LaneSiteID].Site
	lanes := 0
	for _, ls := range inst.LaneSites {
		if ls.Site == site {
			lanes++
		}
	}
	for _, id := range r.calls {
		if inst.LaneSites[id].Site != site {
			return false
		}
	}
	return len(r.calls) <= lanes
}

// TestSiteChainFallsThrough covers the runs the bulk path must leave to
// the chain: an observer attached (identical event streams), Plan.Visits
// set (identical per-lane-site visits), and the injectFault* externs
// registered again after AttachRuntime, which drops the plan's counters:
// before the first run, and between a run that took the bulk path and
// the next run of the same instance, which must call the new externs.
// In each, the vm must count no chain in bulk.
func TestSiteChainFallsThrough(t *testing.T) {
	mod, inst, _ := chainKernel(t, 0)
	prog := Compile(mod)
	const n = 9
	faulty := core.Plan{Mode: core.InjectOnce, TargetDyn: 40, BitSeed: 17}
	visits := core.Plan{Mode: core.CountOnly, Visits: make([]uint64, len(inst.LaneSites))}
	var calls []string
	reregister := func(it *interp.Interp) {
		for _, f := range it.Mod.Funcs {
			if f.IsDecl && strings.HasPrefix(f.Nam, "injectFault") {
				it.RegisterExtern(f.Nam, func(it *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
					if args[1].Int() != 0 {
						calls = append(calls, fmt.Sprint(args[2].Int()))
					}
					return args[0], nil
				})
			}
		}
	}
	for _, tc := range []struct {
		name string
		c    chainCase
	}{
		{"observed golden", chainCase{plan: core.Plan{Mode: core.CountOnly}, observe: true}},
		{"observed faulty", chainCase{plan: faulty, observe: true}},
		{"visits", chainCase{plan: visits}},
		{"re-registered", chainCase{plan: faulty, after: reregister}},
		{"re-registered between runs", chainCase{plan: core.Plan{Mode: core.CountOnly}, after: reregister, rerun: true}},
	} {
		calls = nil
		tree := runChains(t, mod, nil, tc.c, n, 0)
		treeCalls := calls
		calls = nil
		vm := runChains(t, mod, prog, tc.c, n, 0)
		sameChainRun(t, tc.name, tree, vm)
		if vm.bulk != 0 {
			t.Errorf("%s: the vm counted %d chains in bulk", tc.name, vm.bulk)
		}
		if tc.c.rerun && vm.warm == 0 {
			t.Errorf("%s: the first run counted no chain in bulk", tc.name)
		}
		if !slices.Equal(treeCalls, calls) {
			t.Errorf("%s: extern calls: tree %v, vm %v", tc.name, treeCalls, calls)
		}
		if tc.c.after != nil && len(calls) == 0 {
			t.Errorf("%s: the re-registered extern was never called", tc.name)
		}
	}
}

// storeKernel builds main(n, pre), which stores a <4 x i32> value and
// an i32 value into a buffer in a loop and prints the buffers when the
// loop is done; a store site on each store puts its chain in the loop,
// reading a value defined outside it.
//
// With hoisted, the values are defined in the entry block, before a
// loop of four iterations. Otherwise they are phis of an outer loop's
// header, stored by an inner loop of three iterations in each of the
// outer loop's two, and each store chain's result is the phi's incoming
// on the outer back edge; the header also has a phi site whose chain
// result feeds the back edge of its own phi, and which main prints at
// the end.
func storeKernel(t *testing.T, hoisted bool) (*ir.Module, *core.Instrumentation) {
	t.Helper()
	i32x4 := ir.Vec(ir.I32, 4)
	mod := ir.NewModule("stores")
	outV := ir.NewDecl("vulfi.out.v4i32", ir.Void, i32x4)
	outS := ir.NewDecl("vulfi.out.i32", ir.Void, ir.I32)
	mod.AddFunc(outV)
	mod.AddFunc(outS)
	f := ir.NewFunc("main", ir.I32, []*ir.Type{ir.I32, ir.I32}, []string{"n", "pre"})
	mod.AddFunc(f)
	pre := f.Params[1]
	entry := f.NewBlock("entry")
	be := ir.NewBuilder(entry)
	const slots = 6
	buf := be.Alloca(i32x4, slots, "buf")
	bufs := be.Alloca(ir.I32, slots, "bufs")
	k1234 := ir.ConstVec(i32x4, []uint64{1, 2, 3, 4})
	one := ir.ConstInt(ir.I32, 1)

	// store stores v and vs at index k of the buffers, and returns the
	// two stores.
	store := func(b *ir.Builder, v, vs, k ir.Value) (*ir.Instr, *ir.Instr) {
		return b.Store(v, b.GEP(buf, k, "p")), b.Store(vs, b.GEP(bufs, k, "ps"))
	}
	var sites []*core.Site
	var stores []*ir.Instr
	var phis []*ir.Instr
	exit := f.NewBlock("exit")
	bx := ir.NewBuilder(exit)
	if hoisted {
		v := be.Mul(be.Broadcast(be.Add(pre, one, "p1"), 4, "bp"), k1234, "v")
		vs := be.Add(pre, ir.ConstInt(ir.I32, 7), "vs")
		loop := f.NewBlock("loop")
		be.Br(loop)
		bl := ir.NewBuilder(loop)
		i := bl.Phi(ir.I32, "i")
		st, sts := store(bl, v, vs, i)
		stores = append(stores, st, sts)
		in := bl.Add(i, one, "in")
		bl.CondBr(bl.ICmp(ir.IntSLT, in, ir.ConstInt(ir.I32, 4), "c"), loop, exit)
		ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
		ir.AddIncoming(i, in, loop)
	} else {
		outer, inner, latch := f.NewBlock("outer"), f.NewBlock("inner"), f.NewBlock("latch")
		be.Br(outer)
		bo := ir.NewBuilder(outer)
		x := bo.Phi(i32x4, "x")
		xs := bo.Phi(ir.I32, "xs")
		y := bo.Phi(i32x4, "y")
		o := bo.Phi(ir.I32, "o")
		bo.Br(inner)
		bi := ir.NewBuilder(inner)
		j := bi.Phi(ir.I32, "j")
		st, sts := store(bi, x, xs, bi.Add(bi.Mul(o, ir.ConstInt(ir.I32, 3), "o3"), j, "k"))
		stores = append(stores, st, sts)
		jn := bi.Add(j, one, "jn")
		bi.CondBr(bi.ICmp(ir.IntSLT, jn, ir.ConstInt(ir.I32, 3), "cj"), inner, latch)
		bl := ir.NewBuilder(latch)
		on := bl.Add(o, one, "on")
		bl.CondBr(bl.ICmp(ir.IntSLT, on, ir.ConstInt(ir.I32, 2), "co"), outer, exit)
		ir.AddIncoming(x, k1234, entry)
		ir.AddIncoming(x, ir.ConstZero(i32x4), latch) // the store chain's result, below
		ir.AddIncoming(xs, pre, entry)
		ir.AddIncoming(xs, ir.ConstInt(ir.I32, 0), latch) // likewise
		ir.AddIncoming(y, ir.ConstVec(i32x4, []uint64{5, 6, 7, 8}), entry)
		ir.AddIncoming(y, y, latch)
		ir.AddIncoming(o, ir.ConstInt(ir.I32, 0), entry)
		ir.AddIncoming(o, on, latch)
		ir.AddIncoming(j, ir.ConstInt(ir.I32, 0), outer)
		ir.AddIncoming(j, jn, inner)
		bx.Call(outV, "", y)
		sites = append(sites, &core.Site{Instr: y, ValueOperand: -1, MaskOperand: -1})
		phis = []*ir.Instr{x, xs}
	}
	for k := 0; k < slots; k++ {
		idx := ir.ConstInt(ir.I32, int64(k))
		bx.Call(outV, "", bx.Load(bx.GEP(buf, idx, "q"), "l"))
		bx.Call(outS, "", bx.Load(bx.GEP(bufs, idx, "qs"), "ls"))
	}
	bx.Ret(ir.ConstInt(ir.I32, 0))

	for _, st := range stores {
		sites = append(sites, &core.Site{Instr: st, ValueOperand: 0, MaskOperand: -1})
	}
	for i, s := range sites { // in block order, as core.Instrument takes them
		s.ID = i
	}
	inst, err := core.Instrument(mod, sites)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		phi.SetOperand(1, stores[i].Operand(0))
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
	return mod, inst
}

// TestSiteChainSharedRegister flips every dynamic site of both
// storeKernels in turn, the first iteration's included, and requires
// both backends to agree on the whole run, stored values and printed
// buffers included. A store chain reading a value defined outside its
// loop must keep its own result register, or a flip in one iteration
// would reach the next iteration's store; the header's phi site must
// share its phi's register, as must every site of chainKernel.
func TestSiteChainSharedRegister(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hoisted bool
	}{{"defined before the loop", true}, {"outer phi", false}} {
		t.Run(tc.name, func(t *testing.T) {
			mod, inst := storeKernel(t, tc.hoisted)
			prog := Compile(mod)
			if got := prog.Fused("site"); got != len(inst.Sites) {
				t.Fatalf("%d fused sites, want %d", got, len(inst.Sites))
			}
			golden := chainCase{plan: core.Plan{Mode: core.CountOnly}}
			tree := runChains(t, mod, nil, golden, 0, 3)
			sameChainRun(t, "golden", tree, runChains(t, mod, prog, golden, 0, 3))
			for target := uint64(1); target <= tree.sites; target++ {
				c := chainCase{plan: core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: 5}}
				what := fmt.Sprintf("target %d", target)
				sameChainRun(t, what, runChains(t, mod, nil, c, 0, 3), runChains(t, mod, prog, c, 0, 3))
			}
			if got, want := sharedSites(prog), len(inst.Sites)-2; got != want {
				t.Errorf("%d chains share their value's register, want %d", got, want)
			}
		})
	}
	mod, inst, _ := chainKernel(t, 0)
	if got := sharedSites(Compile(mod)); got != len(inst.Sites) {
		t.Errorf("chainKernel: %d chains share their value's register, want all %d", got, len(inst.Sites))
	}
}

// sharedSites counts prog's site guards whose chain result shares the
// register of the site's value.
func sharedSites(prog *Program) int {
	n := 0
	for _, code := range prog.fns {
		if code == nil {
			continue
		}
		for _, v := range code.code {
			if v.op == vSite && v.dst == v.a {
				n++
			}
		}
	}
	return n
}

// eachCell compiles and instruments every benchmark × ISA × category
// cell as a campaign does by default and calls fn on each; it requires
// all 117.
func eachCell(t *testing.T, fn func(cell string, mod *ir.Module, inst *core.Instrumentation)) {
	t.Helper()
	cells := 0
	for _, b := range benchmarks.All() {
		for _, target := range isa.Extended {
			for _, cat := range passes.AllCategories {
				res, err := codegen.CompileSource(b.Source, target, b.Name)
				if err != nil {
					t.Fatal(err)
				}
				inst := &core.Instrumentation{}
				pm := &passes.Manager{Verify: true}
				pm.Add(&core.InstrumentPass{Category: cat, Out: inst})
				cell := fmt.Sprintf("%s/%s/%s", b.Name, target.Name, cat)
				if err := pm.Run(res.Module); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				fn(cell, res.Module, inst)
				cells++
			}
		}
	}
	if cells != 117 {
		t.Fatalf("covered %d cells, want 117", cells)
	}
}

// broadcastPairs returns the instructions of mod's fusable Figure 9
// broadcasts, insert then shuffle: an insertelement into lane 0 of an
// undef vector whose one use is the shufflevector right after it, with
// an all-zero mask. When the insert is itself a fault site, its
// injection chain sits between the two and the shuffle reads the
// chain's result, so the pair is not adjacent: it is not counted here,
// and the compiler leaves it unfused.
func broadcastPairs(mod *ir.Module) []*ir.Instr {
	var pairs []*ir.Instr
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i+1 < len(b.Instrs); i++ {
				ins, shuf := b.Instrs[i], b.Instrs[i+1]
				if ins.Op != ir.OpInsertElement || ins.NumUses() != 1 ||
					shuf.Op != ir.OpShuffleVector || shuf.Operand(0) != ins {
					continue
				}
				vec, ok1 := ins.Operand(0).(*ir.Const)
				lane, ok2 := ins.Operand(2).(*ir.Const)
				if !ok1 || !vec.Undef || !ok2 || lane.Int() != 0 ||
					slices.ContainsFunc(shuf.ShuffleMask, func(m int) bool { return m != 0 }) {
					continue
				}
				pairs = append(pairs, ins, shuf)
			}
		}
	}
	return pairs
}

// TestEverySiteFuses requires, in every default cell, one vSite guard
// per selected fault site and one vBcast per fusable broadcast pair. A
// change to core.Instrument's emission order (or to codegen's
// broadcasts) that the matcher no longer recognises would drop the fast
// path while every differential test stays green; this test is what
// notices. The ablation modes are not default cells and are not counted
// here: the whole-register ablation's single vector-typed call may stay
// unfused (it matches as a scalar site today), and the mask-oblivious
// chains are the unmasked shape.
func TestEverySiteFuses(t *testing.T) {
	bcasts := 0
	eachCell(t, func(cell string, mod *ir.Module, inst *core.Instrumentation) {
		prog := Compile(mod)
		if got, want := prog.Fused("site"), len(inst.Sites); got != want {
			t.Errorf("%s: %d fused sites, want %d", cell, got, want)
		}
		if got, want := prog.Fused("bcast"), len(broadcastPairs(mod))/2; got != want {
			t.Errorf("%s: %d fused broadcasts, want %d", cell, got, want)
		}
		bcasts += prog.Fused("bcast")
	})
	if bcasts == 0 {
		t.Fatal("no cell has a broadcast pair")
	}
}

// codeBound bounds the vinstrs compileFunc emits for f as layout does,
// from matchSite alone: one per instruction, one per fault-site chain,
// and one per insert into lane 0 of undef outside a chain.
func codeBound(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
		for i := 0; i < len(b.Instrs); i++ {
			if m := matchSite(b.Instrs[i:]); m.n > 0 {
				n++
				i += m.n - 1
			} else if in := b.Instrs[i]; in.Op == ir.OpInsertElement && bcastInit(in) {
				n++
			}
		}
	}
	return n
}

// TestCodeSizedOnce requires every compiled function's code to fit the
// capacity codeBound gives it, in every default cell: an append past it
// would have reallocated the slice (and grown its capacity).
func TestCodeSizedOnce(t *testing.T) {
	eachCell(t, func(cell string, mod *ir.Module, _ *core.Instrumentation) {
		for _, code := range Compile(mod).fns {
			if code == nil {
				continue
			}
			if got, want := cap(code.code), codeBound(code.fn); got != want {
				t.Errorf("%s: @%s: code capacity %d, want codeBound's %d (%d emitted)",
					cell, code.fn.Nam, got, want, len(code.code))
			}
		}
	})
}
