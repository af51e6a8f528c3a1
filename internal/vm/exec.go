package vm

import (
	"fmt"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// sx sign-extends an index payload by its precomputed shift (see
// vinstr.idxSh); identical to ir.SignExtend at the operand's width.
func sx(bits uint64, sh uint8) int64 { return int64(bits<<sh) >> sh }

// getOperand resolves an operand ref against the frame: registers for
// non-negative refs, the constant pool for negative ones.
func getOperand(regs, consts []interp.Value, ref int32) interp.Value {
	if ref >= 0 {
		return regs[ref]
	}
	return consts[^ref]
}

// slowStep is the out-of-line half of accounting one non-phi
// instruction: the observer's Account and, on a 1024 boundary, the
// tree-walker's budget check located at in. Keeping it out of line lets
// the per-instruction step inline into every opcode case.
//
//go:noinline
func slowStep(it *interp.Interp, obs interp.Observer, in *ir.Instr) *interp.Trap {
	if obs != nil {
		obs.Account(in)
	}
	if it.DynInstrs&1023 == 0 {
		if tr := it.CheckBudget(); tr != nil {
			return it.LocateTrap(tr, in)
		}
	}
	return nil
}

// CallCompiled implements interp.Engine: it executes f's bytecode body
// against it's observable state.
//
// The loop replays the tree-walker's exact observable schedule. Every
// instruction — phis and terminators included — bumps DynInstrs (and
// DynVector when vectoring) and is accounted to the observer before it
// executes; non-phi instructions check the budget when DynInstrs crosses
// a 1024 boundary; phi blocks check it once, unconditionally, located at
// the first phi. Traps are stamped with provenance through LocateTrap at
// the same instruction the tree-walker would stamp.
//
// The body runs in a frame popped from the machine's free stack for f
// and pushed back on return. Each result is written in place into its
// register's own words (see the package doc for the invariant) through
// the interp package's Into kernels and Memory.LoadInto, which write
// every lane. Parameters and constants are only read. The return value
// is the one value that outlives the frame: it is cloned unless the
// caller is this machine's own vCall, which copies it out at once.
func (m *Machine) CallCompiled(it *interp.Interp, f *ir.Func, args []interp.Value) (interp.Value, *interp.Trap) {
	borrow := m.borrow
	m.borrow = false
	code := m.prog.fns[f.Num()]
	fr := m.getFrame(code)
	r, tr := m.run(it, code, fr, args, borrow, 0)
	m.putFrame(code, fr)
	return r, tr
}

// getFrame pops an idle frame for code, or builds one; the caller hands
// it to putFrame when the activation ends.
func (m *Machine) getFrame(code *fnCode) *frame {
	n := code.fn.Num()
	if free := m.free[n]; len(free) > 0 {
		fr := free[len(free)-1]
		m.free[n] = free[:len(free)-1]
		return fr
	}
	return newFrame(code)
}

// putFrame pushes fr back onto code's idle frames.
func (m *Machine) putFrame(code *fnCode, fr *frame) {
	n := code.fn.Num()
	m.free[n] = append(m.free[n], fr)
}

// run executes code's body in fr from pc (0 for a call, a snapshot's pc
// for Resume); borrow lets vRet return the frame's own words (see
// Machine.borrow).
func (m *Machine) run(it *interp.Interp, code *fnCode, fr *frame, args []interp.Value, borrow bool, pc int32) (interp.Value, *interp.Trap) {
	regs := fr.regs
	copy(regs, args)
	for _, gs := range code.globals {
		// Global addresses are per-instance (Reset reallocates), so they
		// are written at frame entry rather than living in the const pool.
		regs[gs.reg].Bits[0] = it.GlobalAddr(gs.g)
	}

	consts := code.consts
	obs := it.Observer()
	// step accounts one non-phi instruction and runs the tree-walker's
	// boundary budget check, returning a located trap when over budget.
	step := func(in *ir.Instr, vec bool) *interp.Trap {
		it.DynInstrs++
		if vec {
			it.DynVector++
		}
		if obs != nil || it.DynInstrs&1023 == 0 {
			return slowStep(it, obs, in)
		}
		return nil
	}
	// retire emits the retirement event of a non-terminator instruction.
	retire := func(in *ir.Instr, val interp.Value) {
		if obs != nil {
			obs.Retire(in, it.DynInstrs, val)
		}
	}
	// fuse accounts both constituents of a fused superinstruction in bulk
	// and reports true when that is unobservable: no observer watches the
	// per-instruction schedule, and the pair sits away from a budget
	// boundary (neither increment may skip a boundary check). Otherwise
	// the caller replays the constituents one step at a time.
	fuse := func(v *vinstr) bool {
		if obs != nil || it.DynInstrs&1023 >= 1022 {
			return false
		}
		it.DynInstrs += 2
		if v.vec {
			it.DynVector++
		}
		if v.vec2 {
			it.DynVector++
		}
		return true
	}
	// runMoves executes a sequenced edge bundle (the eliminated phis'
	// parallel copy for the taken edge). The scratch register owns words
	// for the widest phi, so parking a value there and copying it back
	// out both move exactly the value's lanes.
	runMoves := func(moves []move) {
		for _, mv := range moves {
			copy(regs[mv.dst].Bits, getOperand(regs, consts, mv.src).Bits)
		}
	}

	for {
		v := &code.code[pc]
		switch v.op {

		case vPhiGroup:
			// A block head with phis is the snapshot point: the edge moves
			// have run, nothing of the block is accounted yet (see
			// Recorder and Join). A run that rejoined a Join's snapshot
			// stops here.
			if m.hook != nil && it.Depth() == 1 && m.hook.at(it, code, regs, pc) {
				return interp.Value{}, nil
			}
			// The parallel copy already ran on the incoming edge; this
			// replays the tree-walker's per-phi accounting and retirement,
			// then its single unconditional budget check at the first phi.
			for i := range v.phis {
				p := &v.phis[i]
				it.DynInstrs++
				if p.vec {
					it.DynVector++
				}
				if obs != nil {
					obs.Account(p.in)
					obs.Retire(p.in, it.DynInstrs, regs[p.reg])
				}
			}
			if tr := it.CheckBudget(); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.phis[0].in)
			}
			pc++

		case vIntBin:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			if tr := interp.IntBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b)); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			retire(v.in, r)
			pc++

		case vFloatBin:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			interp.FloatBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			retire(v.in, r)
			pc++

		case vCmp:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			interp.CompareInto(r, v.irop, v.pred,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			retire(v.in, r)
			pc++

		case vSelect:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			interp.SelectInto(r, getOperand(regs, consts, v.a),
				getOperand(regs, consts, v.b), getOperand(regs, consts, v.c))
			retire(v.in, r)
			pc++

		case vCast:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			interp.CastInto(r, v.irop, getOperand(regs, consts, v.a), r.Ty)
			retire(v.in, r)
			pc++

		case vAlloca:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			addr, tr := it.Mem.Alloc(v.elem)
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			r := regs[v.dst]
			r.Bits[0] = addr
			retire(v.in, r)
			pc++

		case vLoad:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := regs[v.dst]
			if tr := it.Mem.LoadInto(r, getOperand(regs, consts, v.a).Uint()); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			retire(v.in, r)
			pc++

		case vStore:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			tr := it.Mem.Store(getOperand(regs, consts, v.a),
				getOperand(regs, consts, v.b).Uint())
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			retire(v.in, interp.Value{})
			pc++

		case vGEP:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			r := regs[v.dst]
			r.Bits[0] = addr
			retire(v.in, r)
			pc++

		case vExtract:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			vec := getOperand(regs, consts, v.a)
			idx := int(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))
			if idx < 0 || idx >= len(vec.Bits) {
				tr := &interp.Trap{Kind: interp.TrapBadIndex,
					Msg: fmt.Sprintf("extractelement lane %d of %d", idx, len(vec.Bits))}
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			r := regs[v.dst]
			r.Bits[0] = vec.Bits[idx]
			retire(v.in, r)
			pc++

		case vInsert:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			vec := getOperand(regs, consts, v.a)
			elem := getOperand(regs, consts, v.b)
			idx := int(sx(getOperand(regs, consts, v.c).Bits[0], v.idxSh))
			if idx < 0 || idx >= len(vec.Bits) {
				tr := &interp.Trap{Kind: interp.TrapBadIndex,
					Msg: fmt.Sprintf("insertelement lane %d of %d", idx, len(vec.Bits))}
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			r := regs[v.dst]
			copy(r.Bits, vec.Bits)
			r.Bits[idx] = elem.Bits[0]
			retire(v.in, r)
			pc++

		case vShuffle:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			a := getOperand(regs, consts, v.a)
			b := getOperand(regs, consts, v.b)
			n := a.Lanes()
			r := regs[v.dst]
			for i, mi := range v.mask {
				switch {
				case mi < 0:
					r.Bits[i] = 0 // undef lane
				case mi < n:
					r.Bits[i] = a.Bits[mi]
				default:
					r.Bits[i] = b.Bits[mi-n]
				}
			}
			retire(v.in, r)
			pc++

		case vCall:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			// The frame's argv is reused without clearing: externs consume
			// their arguments at once and callees copy the vector on entry.
			// Arguments are shared, not cloned: no callee writes them
			// (injection clones before flipping).
			argv := fr.argv[:len(v.args)]
			for i, ref := range v.args {
				argv[i] = getOperand(regs, consts, ref)
			}
			var r interp.Value
			var tr *interp.Trap
			if v.decl {
				// A declaration of the module: call its extern table entry
				// directly. A callee without one falls back to Call for its
				// diagnostic trap.
				if e := it.ExternAt(v.callee.Num()); e.Fn != nil {
					r, tr = e.Fn(it, argv)
				} else {
					r, tr = it.Call(v.callee, argv)
				}
			} else {
				m.borrow = true
				r, tr = it.Call(v.callee, argv)
				m.borrow = false
			}
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in)
			}
			if v.dst >= 0 {
				// Copy, never share: injectFault* returns its argument on
				// every site but the target, and a compiled callee lends its
				// frame's words, so sharing would alias another register.
				if d := regs[v.dst]; r.Ty == d.Ty && len(r.Bits) == len(d.Bits) {
					copy(d.Bits, r.Bits)
				} else {
					regs[v.dst] = r.Clone()
				}
				r = regs[v.dst]
			}
			retire(v.in, r)
			pc++

		case vBr:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			runMoves(v.m0)
			pc = v.t0

		case vCondBr:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			if getOperand(regs, consts, v.a).Bool() {
				runMoves(v.m0)
				pc = v.t0
			} else {
				runMoves(v.m1)
				pc = v.t1
			}

		case vRet:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			r := getOperand(regs, consts, v.a)
			if !borrow {
				// The one value that outlives the frame: the next call
				// reusing the frame rewrites a register's words, and a
				// constant's words are the IR's, which the caller must
				// not be able to write.
				r = r.Clone()
			}
			return r, nil

		case vRetVoid:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			return interp.Value{}, nil

		case vUnreachable:
			if tr := step(v.in, v.vec); tr != nil {
				return interp.Value{}, tr
			}
			tr := &interp.Trap{Kind: interp.TrapHalt,
				Msg: fmt.Sprintf("reached unreachable in @%s", code.fn.Nam)}
			return interp.Value{}, it.LocateTrap(tr, v.in)

		case vGEPLoad:
			// Fused lane-address + load. The address computation cannot
			// trap, so it runs ahead of the constituents' accounting.
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			if !fuse(v) {
				if tr := step(v.in, v.vec); tr != nil {
					return interp.Value{}, tr
				}
				if obs != nil {
					obs.Retire(v.in, it.DynInstrs, interp.PtrValue(v.in.Ty, addr))
				}
				if tr := step(v.in2, v.vec2); tr != nil {
					return interp.Value{}, tr
				}
			}
			r := regs[v.dst]
			if tr := it.Mem.LoadInto(r, addr); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in2)
			}
			retire(v.in2, r)
			pc++

		case vGEPStore:
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			if !fuse(v) {
				if tr := step(v.in, v.vec); tr != nil {
					return interp.Value{}, tr
				}
				if obs != nil {
					obs.Retire(v.in, it.DynInstrs, interp.PtrValue(v.in.Ty, addr))
				}
				if tr := step(v.in2, v.vec2); tr != nil {
					return interp.Value{}, tr
				}
			}
			if tr := it.Mem.Store(getOperand(regs, consts, v.c), addr); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in2)
			}
			retire(v.in2, interp.Value{})
			pc++

		case vCmpBr:
			// Fused scalar mask-test + branch into the compare's register;
			// the compare cannot trap.
			cond := regs[v.dst]
			interp.CompareInto(cond, v.irop, v.pred,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			if !fuse(v) {
				if tr := step(v.in, v.vec); tr != nil {
					return interp.Value{}, tr
				}
				retire(v.in, cond)
				if tr := step(v.in2, v.vec2); tr != nil {
					return interp.Value{}, tr
				}
			}
			if cond.Bool() {
				runMoves(v.m0)
				pc = v.t0
			} else {
				runMoves(v.m1)
				pc = v.t1
			}

		case vSite:
			// A fault site's whole chain in one step, where nothing could
			// tell: no observer watches its instructions, a budget check
			// that falls among them would pass (the guard runs it, at its
			// own count), and the injection runtime's bulk counter agrees
			// that each live lane's call would return its value and only
			// count it. Otherwise fall through: the chain lowered after
			// the guard runs call by call. A chain whose result shares its
			// value's register (see layout) has nothing to copy.
			s := v.site
			from, to := it.DynInstrs, it.DynInstrs+s.n
			if last := to &^ 1023; obs == nil && (last <= from || !it.OverBudget(last)) {
				if e := it.ExternAt(v.callee.Num()); e.Bulk != nil {
					live := s.lanes
					if s.masked {
						live = 0
						for _, w := range getOperand(regs, consts, v.b).Bits {
							live += w >> s.signBit & 1
						}
					}
					if e.Bulk(live) {
						if v.dst != v.a {
							copy(regs[v.dst].Bits, getOperand(regs, consts, v.a).Bits)
						}
						for b := from&^1023 + 1024; b <= to; b += 1024 {
							it.DynInstrs = b
							it.CheckBudget() // passes: last is not over budget
						}
						it.DynInstrs = to
						it.DynVector += s.nvec
						pc = v.t0
						continue
					}
				}
			}
			pc++

		case vBcast:
			// Figure 9's broadcast: the shuffle reads only lane 0 of the
			// insert, which is the scalar. The insert's own register is read
			// by nothing else, so the fused path leaves it as it is.
			if fuse(v) {
				w := getOperand(regs, consts, v.a).Bits[0]
				r := regs[v.dst].Bits
				for i := range r {
					r[i] = w
				}
				pc = v.t0
				continue
			}
			pc++

		default:
			panic(fmt.Sprintf("vm: @%s: opcode %d at pc %d", code.fn.Nam, v.op, pc))
		}
	}
}
