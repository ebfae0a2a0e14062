package semcheck

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// numIReg is the I-ISA register file size (architected + VM scratch).
const numIReg = ildp.NumGPR

// fragWalk symbolically executes a translated fragment, mirroring the
// VM's translated-code executor instruction by instruction. The walk is
// linear: conditional side exits record an exit obligation and continue
// on the fall-through path; the software-prediction compare records the
// dispatch alternative and continues under the fall-through assumption.
type fragWalk struct {
	b      *builder
	code   *translate.Result
	regs   [numIReg]*Term
	acc    [ildp.MaxAccumulators]*Term
	assume []assumption
	peiIdx int
	dead   bool // a constant chain compare made the rest unreachable
	out    sides
}

func runFrag(b *builder, code *translate.Result) (*sides, error) {
	w := &fragWalk{b: b, code: code}
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		w.regs[r] = b.initReg(r)
	}
	for r := alpha.Reg(alpha.NumRegs); r < numIReg; r++ {
		w.regs[r] = b.initScratch(r)
	}
	for i := range w.acc {
		w.acc[i] = b.initAcc(i)
	}
	for i := range code.Insts {
		inst := &code.Insts[i]
		if w.dead {
			break
		}
		done, err := w.step(i, inst)
		if err != nil {
			return nil, err
		}
		if done {
			if i != len(code.Insts)-1 {
				return nil, fmt.Errorf("semcheck: instruction #%d after fragment-ending #%d", i+1, i)
			}
			return &w.out, nil
		}
	}
	if w.dead {
		return &w.out, nil
	}
	return nil, fmt.Errorf("semcheck: fragment has no terminating control transfer")
}

func (w *fragWalk) readGPR(r alpha.Reg) *Term {
	if int(r) >= numIReg {
		return w.b.zero
	}
	return w.regs[r]
}

func (w *fragWalk) writeGPR(r alpha.Reg, t *Term) {
	if r == alpha.RegZero || int(r) >= numIReg {
		return
	}
	w.regs[r] = t
}

func (w *fragWalk) readSrc(inst *ildp.Inst, s ildp.Src) *Term {
	switch s.Kind {
	case ildp.SrcAcc:
		return w.acc[inst.Acc&7]
	case ildp.SrcGPR:
		return w.readGPR(s.Reg)
	case ildp.SrcImm:
		return w.b.konst(uint64(s.Imm))
	}
	return w.b.zero
}

// archRegs is the architected slice of the register file.
func (w *fragWalk) archRegs() (out [alpha.NumRegs]*Term) {
	copy(out[:], w.regs[:alpha.NumRegs])
	return out
}

func (w *fragWalk) pathAssume() []assumption {
	return append([]assumption(nil), w.assume...)
}

// notePEI records the precise-trap obligation at a potentially-
// excepting instruction: the architected register file with the
// PEI-recovery pairs materialised from accumulators, exactly as the
// VM's preciseTrap would construct it.
func (w *fragWalk) notePEI(inst *ildp.Inst) error {
	if w.peiIdx >= len(w.code.PEI) {
		return fmt.Errorf("semcheck: PEI table exhausted at I#%d (vpc %#x)", w.peiIdx, inst.VPC)
	}
	if w.code.PEI[w.peiIdx] != inst.VPC {
		return fmt.Errorf("semcheck: PEI table disagrees at entry %d: table %#x, instruction %#x",
			w.peiIdx, w.code.PEI[w.peiIdx], inst.VPC)
	}
	regs := w.archRegs()
	if w.peiIdx < len(w.code.PEIRecover) {
		for _, pair := range w.code.PEIRecover[w.peiIdx] {
			if pair.Reg != alpha.RegZero && pair.Reg < alpha.NumRegs {
				regs[pair.Reg] = w.acc[pair.Acc&7]
			}
		}
	}
	w.out.peis = append(w.out.peis, peiRec{
		VPC: inst.VPC, Regs: regs,
		NLoads: len(w.out.loads), NStores: len(w.out.stores),
	})
	w.peiIdx++
	return nil
}

func (w *fragWalk) pushFinal(target *Term, where string) {
	w.out.finals = append(w.out.finals, exitRec{
		Target: target, Regs: w.archRegs(),
		NLoads: len(w.out.loads), NStores: len(w.out.stores),
		Assume: w.pathAssume(), Where: where,
	})
}

// step executes one I-instruction; done reports a fragment-ending
// unconditional transfer.
func (w *fragWalk) step(i int, inst *ildp.Inst) (bool, error) {
	b := w.b
	isPEI := peiPoint(inst)
	if isPEI {
		if err := w.notePEI(inst); err != nil {
			return false, err
		}
	}

	switch inst.Kind {
	case ildp.KindALU:
		val := b.op2(inst.Op, w.readSrc(inst, inst.SrcA), w.readSrc(inst, inst.SrcB))
		if inst.WritesAcc {
			w.acc[inst.Acc&7] = val
		}
		if inst.Dest != alpha.RegZero {
			w.writeGPR(inst.Dest, val)
		}

	case ildp.KindCMOV:
		cond := w.acc[inst.Acc&7]
		if inst.SrcA.Kind == ildp.SrcGPR {
			cond = w.readGPR(inst.SrcA.Reg)
		}
		if inst.Dest != alpha.RegZero {
			sel := b.ite(inst.Op, cond, w.readSrc(inst, inst.SrcB), w.readGPR(inst.Dest))
			w.writeGPR(inst.Dest, sel)
		}

	case ildp.KindLoad:
		addr := b.op2(alpha.OpADDQ, w.readSrc(inst, inst.SrcA), b.konst(uint64(int64(inst.Disp))))
		val := b.load(inst.Op, addr, len(w.out.stores))
		w.out.loads = append(w.out.loads, val)
		if inst.WritesAcc {
			w.acc[inst.Acc&7] = val
		}
		if inst.Dest != alpha.RegZero {
			w.writeGPR(inst.Dest, val)
		}

	case ildp.KindStore:
		addr := b.op2(alpha.OpADDQ, w.readSrc(inst, inst.SrcA), b.konst(uint64(int64(inst.Disp))))
		w.out.stores = append(w.out.stores, storeRec{
			Op: inst.Op, Addr: addr, Val: w.readSrc(inst, inst.SrcB),
		})

	case ildp.KindCopyToGPR:
		w.writeGPR(inst.Dest, w.acc[inst.Acc&7])

	case ildp.KindCopyFromGPR:
		w.acc[inst.Acc&7] = w.readSrc(inst, inst.SrcA)

	case ildp.KindSetVPC:
		// Trap-recovery base register; no architected effect.

	case ildp.KindLoadETA:
		w.acc[inst.Acc&7] = b.konst(inst.VAddr)

	case ildp.KindSaveVRA:
		w.writeGPR(inst.Dest, b.konst(inst.VAddr))

	case ildp.KindPushRAS:
		// Prediction state only; both RAS outcomes are proved below.

	case ildp.KindCondBranch, ildp.KindCallTransCond:
		cond := w.readSrc(inst, inst.SrcA)
		if inst.Frag == ildp.FragDispatch {
			// Software-prediction verdict: taken enters the dispatch
			// routine at the latched target; fall-through pins the
			// compared values equal. A constant condition resolves the
			// verdict statically: an always-taken compare makes the
			// predicted continuation unreachable (degenerate targets).
			w.pushFinal(w.regs[ildp.RegJTarget],
				fmt.Sprintf("dispatch (prediction miss) @ %#x", inst.VPC))
			if cond.Kind == TConst {
				if emu.EvalCond(inst.Op, cond.K) {
					w.dead = true
				}
				break
			}
			w.assume = append(w.assume, notTakenAssumptions(b, inst.Op, cond)...)
			break
		}
		// Core side exit (possibly patched to a direct fragment link;
		// the V-ISA target is preserved in VAddr either way).
		w.out.exits = append(w.out.exits, exitRec{
			HasCond: true, CondOp: inst.Op, Cond: cond,
			Target: b.konst(inst.VAddr), Regs: w.archRegs(),
			NLoads: len(w.out.loads), NStores: len(w.out.stores),
			Assume: w.pathAssume(), VPC: inst.VPC,
			Where: fmt.Sprintf("side exit @ %#x", inst.VPC),
		})

	case ildp.KindBranch, ildp.KindCallTrans:
		if inst.Frag == ildp.FragDispatch {
			w.pushFinal(w.regs[ildp.RegJTarget],
				fmt.Sprintf("dispatch @ %#x", inst.VPC))
		} else {
			w.pushFinal(b.konst(inst.VAddr),
				fmt.Sprintf("direct continuation to %#x", inst.VAddr))
		}
		return true, nil

	case ildp.KindJumpRet:
		target := b.op2(alpha.OpBIC, w.readSrc(inst, inst.SrcA), b.konst(3))
		// RAS hit: enter (or exit at) the popped V address, which the
		// executor only takes when it equals the masked target.
		w.pushFinal(target, fmt.Sprintf("RAS return @ %#x", inst.VPC))
		// RAS miss: latch the target for dispatch and fall through.
		w.writeGPR(ildp.RegJTarget, target)

	default:
		return false, fmt.Errorf("semcheck: cannot execute %v at I#%d", inst.Kind, i)
	}
	return false, nil
}

// peiPoint mirrors the VM executor's potentially-excepting-instruction
// predicate.
func peiPoint(inst *ildp.Inst) bool {
	if inst.Class != ildp.ClassCore {
		return false
	}
	switch inst.Kind {
	case ildp.KindLoad, ildp.KindStore, ildp.KindCallTransCond, ildp.KindCondBranch:
		return true
	}
	return false
}
