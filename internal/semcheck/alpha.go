package semcheck

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/translate"
)

// storeRec is one symbolic memory write: the operation (which fixes
// width and any internal address masking), the unmasked address term,
// and the value term.
type storeRec struct {
	Op   alpha.Op
	Addr *Term
	Val  *Term
}

// exitRec is the machine state observable at one exit from the
// superblock or fragment: the (optional) exit condition, the V-ISA
// continuation address, the architected register file, and how much of
// the memory-effect lists had happened by then.
type exitRec struct {
	HasCond bool
	CondOp  alpha.Op
	Cond    *Term
	Target  *Term
	Regs    [alpha.NumRegs]*Term
	NLoads  int
	NStores int
	Assume  []assumption // fragment-side path constraints (empty on the Alpha side)
	VPC     uint64
	Where   string
}

// peiRec is the precise architected state at one potentially-excepting
// instruction, before the instruction's own effects. On the fragment
// side the register file is overlaid with the PEI-recovery pairs the
// trap machinery would materialise from accumulators.
type peiRec struct {
	VPC     uint64
	Regs    [alpha.NumRegs]*Term
	NLoads  int
	NStores int
}

// sides is the full symbolic denotation of one side of the proof.
type sides struct {
	exits  []exitRec // side exits, in program order
	finals []exitRec // fragment end alternatives (exactly one on the Alpha side)
	peis   []peiRec
	loads  []*Term
	stores []storeRec
}

// alphaWalk symbolically executes the superblock's recorded path,
// mirroring emu.CPU.Exec under the translator's execution model:
// LDx_L is a plain load, STx_C always succeeds and writes a 1 success
// flag, NOPs and straightened direct branches vanish, and the final
// indirect target is the masked register value.
type alphaWalk struct {
	b    *builder
	regs [alpha.NumRegs]*Term
	out  sides
}

func runAlpha(b *builder, sb *translate.Superblock) (*sides, error) {
	w := &alphaWalk{b: b}
	copy(w.regs[:], b.initial().regs[:alpha.NumRegs])
	ended := false
	for si := range sb.Insts {
		rec := &sb.Insts[si]
		if ended {
			return nil, fmt.Errorf("semcheck: instruction at %#x after superblock end", rec.PC)
		}
		last := si == len(sb.Insts)-1
		done, err := w.step(sb, rec, last)
		if err != nil {
			return nil, err
		}
		ended = done
	}
	if sb.End != translate.EndIndirect {
		if ended {
			return nil, fmt.Errorf("semcheck: superblock ends indirect but End is %v", sb.End)
		}
		w.pushFinal(w.b.konst(sb.NextPC), "fragment end", nil)
	} else if !ended {
		return nil, fmt.Errorf("semcheck: End is indirect but no indirect instruction found")
	}
	return &w.out, nil
}

func (w *alphaWalk) read(r alpha.Reg) *Term { return w.regs[r] }

func (w *alphaWalk) write(r alpha.Reg, t *Term) {
	if r != alpha.RegZero {
		w.regs[r] = t
	}
}

// operandB is the Rb-or-literal operand of an operate-format
// instruction (the literal is zero-extended, as in emu).
func (w *alphaWalk) operandB(inst alpha.Inst) *Term {
	if inst.UseLit {
		return w.b.konst(uint64(inst.Lit))
	}
	return w.read(inst.Rb)
}

func (w *alphaWalk) snapshotPEI(vpc uint64) {
	w.out.peis = append(w.out.peis, peiRec{
		VPC: vpc, Regs: w.regs,
		NLoads: len(w.out.loads), NStores: len(w.out.stores),
	})
}

func (w *alphaWalk) pushExit(op alpha.Op, cond *Term, target uint64, vpc uint64) {
	w.out.exits = append(w.out.exits, exitRec{
		HasCond: true, CondOp: op, Cond: cond,
		Target: w.b.konst(target), Regs: w.regs,
		NLoads: len(w.out.loads), NStores: len(w.out.stores),
		VPC: vpc, Where: fmt.Sprintf("side exit @ %#x", vpc),
	})
}

func (w *alphaWalk) pushFinal(target *Term, where string, assume []assumption) {
	w.out.finals = append(w.out.finals, exitRec{
		Target: target, Regs: w.regs,
		NLoads: len(w.out.loads), NStores: len(w.out.stores),
		Assume: assume, Where: where,
	})
}

// step executes one recorded instruction; it returns true when the
// instruction ends the superblock (register-indirect jump).
func (w *alphaWalk) step(sb *translate.Superblock, rec *translate.SBInst, last bool) (bool, error) {
	inst := rec.Inst
	pc := rec.PC
	b := w.b

	if inst.IsNOP() {
		return false, nil
	}

	switch {
	case inst.Op == alpha.OpLDA || inst.Op == alpha.OpLDAH:
		imm := int64(inst.Disp)
		if inst.Op == alpha.OpLDAH {
			imm <<= 16
		}
		w.write(inst.Ra, b.op2(alpha.OpADDQ, w.read(inst.Rb), b.konst(uint64(imm))))

	case inst.Format == alpha.FormatOperate && inst.IsCMOV():
		cond := w.read(inst.Ra)
		val := w.operandB(inst)
		w.write(inst.Rc, b.ite(inst.Op, cond, val, w.read(inst.Rc)))

	case inst.Format == alpha.FormatOperate:
		w.write(inst.Rc, b.op2(inst.Op, w.read(inst.Ra), w.operandB(inst)))

	case inst.IsLoad():
		w.snapshotPEI(pc)
		addr := b.op2(alpha.OpADDQ, w.read(inst.Rb), b.konst(uint64(int64(inst.Disp))))
		// LDx_L behaves as a plain load under the uniprocessor model.
		val := b.load(inst.Op, addr, len(w.out.stores))
		w.out.loads = append(w.out.loads, val)
		w.write(inst.Ra, val)

	case inst.IsStore():
		w.snapshotPEI(pc)
		addr := b.op2(alpha.OpADDQ, w.read(inst.Rb), b.konst(uint64(int64(inst.Disp))))
		w.out.stores = append(w.out.stores, storeRec{Op: inst.Op, Addr: addr, Val: w.read(inst.Ra)})
		if inst.Op == alpha.OpSTLC || inst.Op == alpha.OpSTQC {
			// Store-conditional succeeds under the uniprocessor model.
			w.write(inst.Ra, b.konst(1))
		}

	case inst.IsCondBranch():
		w.snapshotPEI(pc)
		cond := w.read(inst.Ra)
		target := inst.BranchTarget(pc)
		if last && sb.End == translate.EndBackward {
			// Fragment-ending backward branch: the taken target is the
			// side exit; the fall-through is the fragment end (NextPC).
			w.pushExit(inst.Op, cond, target, pc)
			return false, nil
		}
		if rec.Taken {
			rop, err := reverseCond(inst.Op)
			if err != nil {
				return false, err
			}
			w.pushExit(rop, cond, pc+alpha.InstBytes, pc)
		} else {
			w.pushExit(inst.Op, cond, target, pc)
		}

	case inst.Op == alpha.OpBR && inst.Ra == alpha.RegZero:
		// Straightened away.

	case inst.Op == alpha.OpBR || inst.Op == alpha.OpBSR:
		w.write(inst.Ra, b.konst(pc+alpha.InstBytes))

	case inst.IsIndirect():
		// Read the target before writing the link register (jsr ra,(ra)
		// order, as in the interpreter).
		target := b.op2(alpha.OpBIC, w.read(inst.Rb), b.konst(3))
		w.write(inst.Ra, b.konst(pc+alpha.InstBytes))
		w.pushFinal(target, fmt.Sprintf("indirect @ %#x", pc), nil)
		return true, nil

	default:
		return false, fmt.Errorf("semcheck: unsupported instruction %v at %#x", inst.Op, pc)
	}
	return false, nil
}

// reverseCond mirrors the translator's condition reversal.
func reverseCond(op alpha.Op) (alpha.Op, error) {
	switch op {
	case alpha.OpBEQ:
		return alpha.OpBNE, nil
	case alpha.OpBNE:
		return alpha.OpBEQ, nil
	case alpha.OpBLT:
		return alpha.OpBGE, nil
	case alpha.OpBGE:
		return alpha.OpBLT, nil
	case alpha.OpBLE:
		return alpha.OpBGT, nil
	case alpha.OpBGT:
		return alpha.OpBLE, nil
	case alpha.OpBLBC:
		return alpha.OpBLBS, nil
	case alpha.OpBLBS:
		return alpha.OpBLBC, nil
	}
	return op, fmt.Errorf("semcheck: cannot reverse non-conditional %v", op)
}
