package semcheck

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// The per-op check proves the op list the VM's executor runs
// (tcache.Op: an opcode and register-file slots) against the
// I-instructions it was resolved from, one op at a time, with no path
// walk. Every register-file slot starts as a distinct symbol: GPR r is
// slot r (its fragWalk initial term), accumulator a is slot RFAcc+a,
// RFZero reads 0, the immediate slots read the op's immediates, and any
// other slot — r31's, RFDiscard, the unused ones — reads a symbol of
// its own, so an op that reads it cannot match. The op is interpreted
// over those slots as the executor runs it, and its instruction by
// fragWalk.step from the same state; the two must write the same terms
// to the same GPRs and accumulators, make the same memory accesses and
// read the same branch condition or return target. An op may write
// nowhere else but RFDiscard.
//
// A fused op (tcache.Fuse) must be the fusion table's entry for its own
// first component and the next op's opcode; its first component is
// checked at its index, and the next op at its own.

// effect is what one instruction or op does, in slot terms.
type effect struct {
	loads  []*Term
	stores []storeRec
	ctl    ctlKind
	ctlT   *Term // the condition (ctlCond) or the return target (ctlRet)
}

type ctlKind uint8

const (
	ctlNone   ctlKind = iota
	ctlCond           // a conditional transfer on ctlT
	ctlBranch         // an unconditional transfer
	ctlRet            // a return to ctlT, or a latch of it on a RAS miss
)

var ctlNames = [...]string{"none", "conditional branch", "branch", "return"}

// opWrite is one register-file write of an op.
type opWrite struct {
	slot uint8
	t    *Term
}

// opChecker holds one fragment's per-op check state.
type opChecker struct {
	b      *builder
	code   *translate.Result
	init   *fragInit
	other  [tcache.RFSize]*Term // symbols of the slots no GPR or accumulator owns, made on first read
	w      fragWalk
	ces    []Counterexample
	writes [2]opWrite // an op writes at most D and E
	nw     int
	eff    effect
}

// checkOps checks the op list the executor runs for code without a
// trace sink: the resolved form of code's instructions, fused. Fusion
// changes only the opcode of each pair's first op, so the check covers
// the one-to-one list too.
func checkOps(b *builder, code *translate.Result) []Counterexample {
	ops := tcache.ResolveAll(code.Insts)
	tcache.Fuse(ops)
	return newOpChecker(b, code).check(ops)
}

func newOpChecker(b *builder, code *translate.Result) *opChecker {
	return &opChecker{b: b, code: code, init: b.initial(), w: fragWalk{b: b, code: code}}
}

// check checks ops, an op list for the code's instructions (one op per
// instruction, possibly fused), op by op. It returns the
// counterexamples, none when every op is proved.
func (c *opChecker) check(ops []tcache.Op) []Counterexample {
	if len(ops) != len(c.code.Insts) {
		return []Counterexample{{Kind: CEOp, Where: "op list",
			Alpha: fmt.Sprint(len(c.code.Insts), " instructions"), Frag: fmt.Sprint(len(ops), " ops")}}
	}
	for i := range ops {
		op := ops[i]
		if first, second, fused := tcache.Components(op.Code); fused {
			if i+1 == len(ops) || ops[i+1].Code != second {
				next := "no op"
				if i+1 < len(ops) {
					next = fmt.Sprintf("opcode %d", ops[i+1].Code)
				}
				c.ce(i, "fused op", fmt.Sprintf("second component %d", second), next)
				continue
			}
			op.Code = first
		}
		c.checkOp(i, &op)
	}
	return c.ces
}

func (c *opChecker) ce(i int, where, want, got string) {
	c.ces = append(c.ces, Counterexample{Kind: CEOp, Index: i,
		Where: fmt.Sprintf("op #%d %s", i, where), Alpha: want, Frag: got})
}

// checkOp checks the unfused op at index i against its instruction.
func (c *opChecker) checkOp(i int, op *tcache.Op) {
	inst := &c.code.Insts[i]
	w := &c.w
	w.regs, w.acc = c.init.regs, c.init.acc
	w.assume, w.dead, w.cond = w.assume[:0], false, nil
	w.out.exits, w.out.finals = w.out.exits[:0], w.out.finals[:0]
	w.out.loads, w.out.stores = w.out.loads[:0], w.out.stores[:0]
	done, err := w.step(i, inst)
	if err != nil {
		c.ce(i, inst.Kind.String(), err.Error(), "-")
		return
	}
	want := effect{loads: w.out.loads, stores: w.out.stores}
	switch {
	case done:
		want.ctl = ctlBranch
	case w.cond != nil:
		want.ctl, want.ctlT = ctlCond, w.cond
	case len(w.out.finals) > 0:
		want.ctl, want.ctlT = ctlRet, w.out.finals[0].Target
	}

	if !c.run(inst, op) {
		c.ce(i, inst.Kind.String(), "an executable opcode", fmt.Sprintf("opcode %d", op.Code))
		return
	}
	c.compare(i, inst, &want)
}

// read is slot s's value as op reads it.
func (c *opChecker) read(op *tcache.Op, s uint8) *Term {
	switch {
	case s < numIReg && s != uint8(alpha.RegZero):
		return c.init.regs[s]
	case s >= tcache.RFAcc && s < tcache.RFImmA:
		return c.init.acc[s-tcache.RFAcc]
	case s == tcache.RFImmA:
		return c.b.konst(op.Imm[0])
	case s == tcache.RFImmB:
		return c.b.konst(op.Imm[1])
	case s == tcache.RFZero:
		return c.b.zero
	}
	if c.other[s] == nil {
		c.other[s] = c.b.intern(TSlot, 0, uint64(s), nil, nil, nil)
	}
	return c.other[s]
}

func (c *opChecker) write(s uint8, t *Term) {
	c.writes[c.nw] = opWrite{s, t}
	c.nw++
}

// put is an op writing val to both its destinations, D then E.
func (c *opChecker) put(op *tcache.Op, val *Term) {
	c.write(op.D, val)
	c.write(op.E, val)
}

// inlineOps maps each inline ALU opcode to the operation it computes.
var inlineOps = [...]alpha.Op{
	tcache.XAdd: alpha.OpADDQ, tcache.XSub: alpha.OpSUBQ, tcache.XAnd: alpha.OpAND,
	tcache.XXor: alpha.OpXOR, tcache.XBis: alpha.OpBIS, tcache.XSrl: alpha.OpSRL,
	tcache.XSll: alpha.OpSLL, tcache.XS8Add: alpha.OpS8ADDQ,
}

// run interprets the unfused op over the slot symbols as the executor
// runs it; inst supplies what the executor reads from the instruction
// itself (the ALU, memory and condition op and the displacement). It
// reports false for an opcode the executor cannot run.
func (c *opChecker) run(inst *ildp.Inst, op *tcache.Op) bool {
	b := c.b
	c.nw = 0
	c.eff = effect{loads: c.eff.loads[:0], stores: c.eff.stores[:0]}
	a, bv := c.read(op, op.A), c.read(op, op.B)
	switch op.Code {
	case tcache.XAdd, tcache.XSub, tcache.XAnd, tcache.XXor, tcache.XBis,
		tcache.XSrl, tcache.XSll, tcache.XS8Add:
		c.put(op, b.op2(inlineOps[op.Code], a, bv))
	case tcache.XALU:
		c.put(op, b.op2(inst.Op, a, bv))
	case tcache.XMove:
		c.put(op, a)
	case tcache.XCMOV:
		c.write(op.E, b.ite(inst.Op, a, bv, c.read(op, op.E)))
	case tcache.XLoad:
		val := b.load(inst.Op, b.op2(alpha.OpADDQ, a, b.konst(uint64(int64(inst.Disp)))), 0)
		c.eff.loads = append(c.eff.loads, val)
		c.put(op, val)
	case tcache.XStore:
		c.eff.stores = append(c.eff.stores, storeRec{Op: inst.Op,
			Addr: b.op2(alpha.OpADDQ, a, b.konst(uint64(int64(inst.Disp)))), Val: bv})
	case tcache.XNop, tcache.XPushRAS:
	case tcache.XCondBranch:
		c.eff.ctl, c.eff.ctlT = ctlCond, a
	case tcache.XBranch:
		c.eff.ctl = ctlBranch
	case tcache.XJumpRet:
		target := b.op2(alpha.OpBIC, a, b.konst(3))
		c.eff.ctl, c.eff.ctlT = ctlRet, target
		c.write(uint8(ildp.RegJTarget), target)
	default:
		return false
	}
	return true
}

// compare checks the op's writes and effect (c.writes, c.eff) against
// the instruction's (c.w's state, want).
func (c *opChecker) compare(i int, inst *ildp.Inst, want *effect) {
	where := inst.Kind.String()
	// The op's value of each GPR and accumulator slot: its last write,
	// or the initial symbol.
	var got [tcache.RFImmA]*Term
	for k := range c.writes[:c.nw] {
		wr := c.writes[k]
		switch {
		case wr.slot == tcache.RFDiscard:
		case wr.slot < tcache.RFImmA && wr.slot != uint8(alpha.RegZero):
			got[wr.slot] = wr.t
		default:
			c.ce(i, fmt.Sprintf("%s slot %d", where, wr.slot), "no write", wr.t.String())
		}
	}
	for s := range got {
		var before, after *Term
		if s < numIReg {
			before, after = c.init.regs[s], c.w.regs[s]
		} else {
			before, after = c.init.acc[s-numIReg], c.w.acc[s-numIReg]
		}
		t := got[s]
		if t == nil {
			t = before
		}
		if t != after {
			c.ce(i, fmt.Sprintf("%s slot %d", where, s), after.String(), t.String())
		}
	}
	if want.ctl != c.eff.ctl || want.ctlT != c.eff.ctlT {
		c.ce(i, where+" control", ctlString(want.ctl, want.ctlT), ctlString(c.eff.ctl, c.eff.ctlT))
	}
	if len(want.loads) != len(c.eff.loads) || len(want.loads) == 1 && want.loads[0] != c.eff.loads[0] {
		c.ce(i, where+" load", fmt.Sprint(want.loads), fmt.Sprint(c.eff.loads))
	}
	if len(want.stores) != len(c.eff.stores) || len(want.stores) == 1 && want.stores[0] != c.eff.stores[0] {
		c.ce(i, where+" store", fmt.Sprint(want.stores), fmt.Sprint(c.eff.stores))
	}
}

func ctlString(k ctlKind, t *Term) string {
	if t == nil {
		return ctlNames[k]
	}
	return fmt.Sprintf("%s %s", ctlNames[k], t)
}
