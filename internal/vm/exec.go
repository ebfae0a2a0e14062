package vm

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
)

// profEnter, profExit, and profChain forward frame transitions and
// chain-verdict events to the execution profiler. The profiler's
// methods are nil-safe, so only profEnter guards: its guard avoids
// computing StrandStats when profiling is disabled.
func (v *VM) profEnter(f *tcache.Fragment) {
	if p := v.cfg.Prof; p != nil {
		n, maxLen := f.StrandStats()
		p.FragEnter(f.ID, f.VStart, prof.FragInfo{
			Insts: len(f.Insts), SrcInsts: f.SrcCount,
			Strands: n, MaxStrand: maxLen, Straightened: f.Straightened,
		}, v.Stats.TransIInsts, v.Stats.TransVInsts)
	}
}

func (v *VM) profExit(reason prof.ExitKind) {
	v.cfg.Prof.FragExit(reason, v.Stats.TransIInsts, v.Stats.TransVInsts)
}

func (v *VM) profChain(kind prof.ChainKind) {
	v.cfg.Prof.Chain(kind)
}

// The executor's register file (VM.rf). Translated code reads and
// writes only these slots: the I-ISA GPRs at their own numbers, then
// the accumulators, two immediate slots, a slot that is always zero and
// one that absorbs writes to no destination. The file has 256 slots and
// is indexed by uint8, so no access needs a bounds check.
const (
	rfAcc     = ildp.NumGPR                  // accumulator a is rfAcc+a
	rfImmA    = rfAcc + ildp.MaxAccumulators // source A's immediate
	rfImmB    = rfImmA + 1                   // source B's immediate
	rfZero    = rfImmB + 1                   // r31 and absent sources
	rfDiscard = rfZero + 1                   // r31 and absent destinations
)

// accSlot, srcSlot and gprDest resolve operands to register-file
// indices.
func accSlot(a ildp.AccID) uint8 { return rfAcc + uint8(a&7) }

// srcSlot returns the index source s reads; imm is the slot an
// immediate is loaded into, and the value to load there.
func srcSlot(inst *ildp.Inst, s ildp.Src, imm uint8) (uint8, uint64) {
	switch s.Kind {
	case ildp.SrcAcc:
		return accSlot(inst.Acc), 0
	case ildp.SrcGPR:
		if s.Reg == alpha.RegZero {
			return rfZero, 0
		}
		return uint8(s.Reg), 0
	case ildp.SrcImm:
		return imm, uint64(s.Imm)
	}
	return rfZero, 0
}

func gprDest(r alpha.Reg) uint8 {
	if r == alpha.RegZero {
		return rfDiscard
	}
	return uint8(r)
}

// Executor opcodes: the one key execTranslated switches on. Every
// installed instruction has one (execOp), resolved with its operands
// once per fragment on its first visit (Fragment.Ops). The hot ALU ops
// have their own opcodes and run inline; every other ALU op goes
// through emu.EvalOp. Each patch pair shares an opcode, so exit
// patching never makes one stale.
const (
	xInvalid uint8 = iota // no executable kind: the run stops with an error
	xALU                  // an ALU op without an inline case: emu.EvalOp
	xAdd                  // lda, addq
	xSub                  // subq
	xAnd
	xXor
	xBis
	xSrl
	xSll
	xS8Add // s8addq
	xCMOV
	xLoad
	xStore
	xMove // copy-to-GPR, copy-from-GPR, load-ETA, save-VRA
	xNop  // set-vpc, dispatch-op
	xPushRAS
	xCondBranch // cond-branch, call-translator-if
	xBranch     // branch, call-translator
	xJumpRet
	xJumpInd
)

// execOp returns the executor opcode of inst.
func execOp(inst *ildp.Inst) uint8 {
	switch inst.Kind {
	case ildp.KindALU:
		switch inst.Op {
		case alpha.OpLDA, alpha.OpADDQ:
			return xAdd
		case alpha.OpSUBQ:
			return xSub
		case alpha.OpAND:
			return xAnd
		case alpha.OpXOR:
			return xXor
		case alpha.OpBIS:
			return xBis
		case alpha.OpSRL:
			return xSrl
		case alpha.OpSLL:
			return xSll
		case alpha.OpS8ADDQ:
			return xS8Add
		}
		return xALU
	case ildp.KindCMOV:
		return xCMOV
	case ildp.KindLoad:
		return xLoad
	case ildp.KindStore:
		return xStore
	case ildp.KindCopyToGPR, ildp.KindCopyFromGPR, ildp.KindLoadETA, ildp.KindSaveVRA:
		return xMove
	case ildp.KindSetVPC, ildp.KindDispatchOp:
		return xNop
	case ildp.KindPushRAS:
		return xPushRAS
	case ildp.KindCondBranch, ildp.KindCallTransCond:
		return xCondBranch
	case ildp.KindBranch, ildp.KindCallTrans:
		return xBranch
	case ildp.KindJumpRet:
		return xJumpRet
	case ildp.KindJumpInd:
		return xJumpInd
	}
	return xInvalid
}

// resolve returns the resolved form of inst: its executor opcode and
// its operands as register-file indices. Results go to D (the
// accumulator, when inst writes one) and E (the destination GPR); a
// move copies source A to both. A register number past the I-ISA's,
// which would alias another slot, resolves to xInvalid.
func resolve(inst *ildp.Inst) tcache.Op {
	op := tcache.Op{Code: execOp(inst), D: rfDiscard, E: gprDest(inst.Dest)}
	for _, s := range [...]ildp.Src{inst.SrcA, inst.SrcB, ildp.GPRSrc(inst.Dest)} {
		if s.Kind == ildp.SrcGPR && s.Reg >= ildp.NumGPR {
			op.Code = xInvalid
		}
	}
	op.A, op.Imm[0] = srcSlot(inst, inst.SrcA, rfImmA)
	op.B, op.Imm[1] = srcSlot(inst, inst.SrcB, rfImmB)
	if inst.WritesAcc {
		op.D = accSlot(inst.Acc)
	}
	switch inst.Kind {
	case ildp.KindCMOV:
		// The condition is a GPR source or the accumulator.
		if inst.SrcA.Kind != ildp.SrcGPR {
			op.A = accSlot(inst.Acc)
		}
		op.D = rfDiscard
	case ildp.KindCopyToGPR:
		op.A, op.D = accSlot(inst.Acc), rfDiscard
	case ildp.KindCopyFromGPR:
		op.D, op.E = accSlot(inst.Acc), rfDiscard
	case ildp.KindLoadETA:
		op.A, op.Imm[0], op.D, op.E = rfImmA, inst.VAddr, accSlot(inst.Acc), rfDiscard
	case ildp.KindSaveVRA:
		op.A, op.Imm[0], op.D = rfImmA, inst.VAddr, rfDiscard
	}
	return op
}

// fragOps builds the resolved form of f's instructions.
func fragOps(f *tcache.Fragment) []tcache.Op {
	ops := make([]tcache.Op, len(f.Insts))
	for i := range f.Insts {
		ops[i] = resolve(&f.Insts[i])
	}
	return ops
}

// execTranslated runs translated code starting at frag, following fragment
// links, chaining code, the dual-address RAS, and the shared dispatch
// routine, until control exits back to the VM. It returns the V-ISA
// address at which interpretation (or further lookup) should continue.
//
// Translated code keeps its state in the register file v.rf. The
// architected GPRs are copied into it here and written back to the CPU
// when control leaves translated code: here on a return or an error,
// after preciseTrap has materialised a trap's registers into the file,
// and in Run's recover after a panic. Nothing reads the CPU's
// registers in between.
func (v *VM) execTranslated(frag *tcache.Fragment) (uint64, error) {
	copy(v.rf[:alpha.NumRegs], v.cpu.Reg[:])
	exitV, err := v.runTranslated(frag)
	v.writeBack()
	return exitV, err
}

// writeBack copies the architected GPRs from the register file to the
// CPU.
func (v *VM) writeBack() {
	copy(v.cpu.Reg[:], v.rf[:alpha.NumRegs])
}

// runTranslated is execTranslated's loop over the register file.
//
// The loop does no per-instruction bookkeeping. It switches once per
// instruction, on the fragment's resolved opcodes, and reads and writes
// operands at their resolved indices, so an inline ALU op is a load of
// two slots and a store to two. With a Sink attached, a record is a
// copy of the fragment's template (Fragment.Recs) with its dynamic
// fields filled in. A visit to a fragment always executes a prefix of
// its instructions, so a visit is counted once, when it ends (leave),
// by the length of that prefix. A trapping instruction's PEI index is
// found only when it traps. Before each instruction that can panic
// with an *emu.SemanticsError, the loop publishes its index in
// faultIdx, where Run's recover finds it to close the visit.
func (v *VM) runTranslated(frag *tcache.Fragment) (uint64, error) {
	sink := v.cfg.Sink
	rf := &v.rf
	var rec trace.Rec

visits:
	for {
		v.enter(frag)
		if frag.Ops == nil {
			frag.Ops = fragOps(frag)
		}
		insts := frag.Insts
		ops := frag.Ops[:len(insts)] // proves ops[idx] in range for the compiler
		var recs []trace.Rec
		if sink != nil {
			if frag.Recs == nil {
				// The first visit with a sink: build the templates here,
				// not in enter, which untimed runs inline.
				frag.Recs = fragRecs(frag)
			}
			recs = frag.Recs
		}

		for idx := 0; idx < len(insts); idx++ {
			op := &ops[idx]
			if sink != nil {
				rec = recs[idx]
			}
			// One 16-byte store fills both immediate slots, whether or
			// not the instruction reads them: no branch.
			*(*[2]uint64)(rf[rfImmA:]) = op.Imm

			switch op.Code {
			case xAdd:
				val := rf[op.A] + rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xSub:
				val := rf[op.A] - rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xAnd:
				val := rf[op.A] & rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xXor:
				val := rf[op.A] ^ rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xBis:
				val := rf[op.A] | rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xSrl:
				val := rf[op.A] >> (rf[op.B] & 63)
				rf[op.D], rf[op.E] = val, val
			case xSll:
				val := rf[op.A] << (rf[op.B] & 63)
				rf[op.D], rf[op.E] = val, val
			case xS8Add:
				val := rf[op.A]<<3 + rf[op.B]
				rf[op.D], rf[op.E] = val, val
			case xMove:
				val := rf[op.A]
				rf[op.D], rf[op.E] = val, val

			case xALU:
				v.faultIdx = idx
				val := emu.EvalOp(insts[idx].Op, rf[op.A], rf[op.B])
				rf[op.D], rf[op.E] = val, val

			case xCMOV:
				v.faultIdx = idx
				if emu.EvalCond(insts[idx].Op, rf[op.A]) {
					rf[op.E] = rf[op.B]
				}

			case xLoad:
				inst := &insts[idx]
				addr := rf[op.A] + uint64(int64(inst.Disp))
				v.faultIdx = idx
				val, err := emu.LoadMem(v.mem, inst.Op, addr)
				if err != nil {
					return 0, v.preciseTrap(frag, idx, inst, err)
				}
				rec.MemAddr = addr
				if inst.Op == alpha.OpLDQU {
					rec.MemAddr = addr &^ 7
				}
				rf[op.D], rf[op.E] = val, val

			case xStore:
				inst := &insts[idx]
				addr := rf[op.A] + uint64(int64(inst.Disp))
				v.faultIdx = idx
				if err := emu.StoreMem(v.mem, inst.Op, addr, rf[op.B]); err != nil {
					return 0, v.preciseTrap(frag, idx, inst, err)
				}
				rec.MemAddr = addr
				if inst.Op == alpha.OpSTQU {
					rec.MemAddr = addr &^ 7
				}

			case xNop:
				// set-vpc writes the implementation PC base for trap
				// recovery, functionally a special register; a dispatch
				// body op does work whose lookup happens at the final
				// jump.

			case xPushRAS:
				vaddr := insts[idx].VAddr
				target := ildp.NoFrag
				if f := v.tc.Lookup(vaddr); f != nil {
					target = f.ID
				}
				v.ras.push(vaddr, target)

			case xCondBranch:
				inst := &insts[idx]
				v.faultIdx = idx
				taken := emu.EvalCond(inst.Op, rf[op.A])
				rec.Taken = taken
				if inst.Class == ildp.ClassChain && inst.Frag == ildp.FragDispatch {
					// Software jump prediction verdict.
					if taken {
						v.Stats.SWPredMisses++
						v.profChain(prof.ChainSWPredMiss)
					} else {
						v.Stats.SWPredHits++
						v.profChain(prof.ChainSWPredHit)
					}
				}
				if !taken {
					break
				}
				v.leave(idx + 1)
				next, exitV := v.takeBranch(inst, &rec)
				if next == nil {
					return exitV, nil
				}
				frag = next
				continue visits

			case xBranch:
				rec.Taken = true
				v.leave(idx + 1)
				next, exitV := v.takeBranch(&insts[idx], &rec)
				if next == nil {
					return exitV, nil
				}
				frag = next
				continue visits

			case xJumpRet:
				target := rf[op.A] &^ 3
				entry, ok := v.ras.pop()
				if ok && entry.v == target && entry.frag != ildp.NoFrag {
					if f := v.tc.Frag(entry.frag); f != nil && f.VStart == entry.v {
						v.Stats.RASHits++
						v.profChain(prof.ChainRASHit)
						rec.Taken = true
						rec.PredHit = true
						rec.Target = f.IAddr
						v.leave(idx + 1)
						next, exitV := v.chain(f, &rec, nil)
						if next == nil {
							return exitV, nil
						}
						frag = next
						continue visits
					}
				}
				// Miss: latch the target for dispatch and fall through to the
				// unconditional branch that follows.
				v.Stats.RASMisses++
				v.profChain(prof.ChainRASMiss)
				rf[ildp.RegJTarget] = target
				rec.Taken = false

			case xJumpInd:
				v.leave(idx + 1)
				next, exitV := v.jumpInd(&rec, nil)
				if next == nil {
					return exitV, nil
				}
				frag = next
				continue visits

			default:
				v.leave(idx)
				return 0, fmt.Errorf("vm: cannot execute %v", insts[idx].Kind)
			}

			if sink != nil {
				v.emitRec(&rec, false)
			}
		}
		v.leave(len(insts))
		return 0, fmt.Errorf("vm: fell off end of fragment %d (V %#x)", frag.ID, frag.VStart)
	}
}

// enter opens a visit to f: control reaches its first instruction.
func (v *VM) enter(f *tcache.Fragment) {
	f.ExecCount++
	v.Stats.FragEntries++
	v.visit = f
	v.profEnter(f)
}

// fragRecs builds the record templates of f's instructions.
func fragRecs(f *tcache.Fragment) []trace.Rec {
	recs := make([]trace.Rec, len(f.Insts))
	for i := range f.Insts {
		recs[i] = newRec(&f.Insts[i], f.IAddrs[i], f.Sizes[i])
	}
	return recs
}

// leave closes the open visit after its first n instructions. It adds
// their I- and V-instruction counts to Stats, which the profiler and
// the budget read as the run goes, and counts the visit end in the
// fragment, from which FoldCounts later adds the class, usage and copy
// counts. Every path out of a visit — a transfer, a trap, an error, a
// recovered panic — calls it. An instruction that faults is not
// counted: it retires nothing and emits no record, so Stats and the
// trace stay in step.
func (v *VM) leave(n int) {
	v.Stats.TransIInsts += uint64(n)
	v.Stats.TransVInsts += uint64(v.visit.End(n))
	v.visit = nil
}

// FoldCounts completes Stats: it adds the class, usage and copy counts
// of every visit ended since the last fold, which wait in the
// translation cache while translated code runs. Run folds before it
// returns, so Stats is complete whenever Run is not running; only an
// observer that reads Stats from inside Run, through the Poll hook,
// calls it. Folding changes no total, only when the counts reach Stats.
func (v *VM) FoldCounts() {
	c := v.tc.Fold()
	v.Stats.add(&c)
}

// takeBranch resolves a taken control transfer whose record is rec:
// into another fragment, through the shared dispatch routine, or out to
// the VM (call-translator). It emits rec. A nil fragment means exit to
// the VM at exitV.
func (v *VM) takeBranch(inst *ildp.Inst, rec *trace.Rec) (*tcache.Fragment, uint64) {
	switch {
	case inst.Frag == ildp.FragDispatch:
		v.cfg.Prof.EnterDispatch(v.Stats.TransIInsts, v.Stats.TransVInsts)
		rec.Target = dispatchEntry(v.tc)
		return v.runDispatch(rec)
	case inst.Frag >= 0:
		f := v.tc.Frag(inst.Frag)
		if f == nil || f.VStart != inst.VAddr {
			// Stale link: the target was invalidated (or its ID slot
			// reused) after this branch was patched. Recover by exiting to
			// the VM at the architected target, which the patch preserved.
			v.Stats.StaleLinks++
			v.noteRecovery("stale link", inst.VAddr)
			return v.exitVM(inst.VAddr, rec, nil)
		}
		v.profChain(prof.ChainDirect)
		rec.Target = f.IAddr
		return v.chain(f, rec, nil)
	default:
		// Call-translator: exit to the VM at the V-ISA target.
		return v.exitVM(inst.VAddr, rec, nil)
	}
}

// runDispatch executes the shared dispatch routine, entered by the branch
// whose record is from. Its instructions enter the trace, and the
// PC-translation-table lookup happens at its final indirect jump. The
// routine always runs in full, so its run is counted up front.
func (v *VM) runDispatch(from *trace.Rec) (*tcache.Fragment, uint64) {
	t := v.tc.EndDispatch()
	v.Stats.TransIInsts += uint64(t.IInsts)
	v.Stats.TransVInsts += uint64(t.VInsts)
	var rec trace.Rec
	if sink := v.cfg.Sink; sink != nil {
		last := len(v.dispRecs) - 1
		for i := range v.dispRecs[:last] {
			sink.Append(v.dispRecs[i])
		}
		rec = v.dispRecs[last]
	}
	return v.jumpInd(&rec, from)
}

// dispatchRecs builds the record templates of the dispatch routine,
// which never changes.
func dispatchRecs(tc *tcache.Cache) []trace.Rec {
	insts, addrs := tc.Dispatch()
	recs := make([]trace.Rec, len(insts))
	for i := range insts {
		recs[i] = newRec(&insts[i], addrs[i], uint8(insts[i].EncodedSize(ildp.Modified)))
	}
	return recs
}

// jumpInd performs the PC-translation-table lookup of an indirect jump
// through ildp.RegJTarget, whose record is rec; from is the record of the
// branch into the dispatch routine, or nil. It chains into the target's
// fragment or exits to the VM.
func (v *VM) jumpInd(rec, from *trace.Rec) (*tcache.Fragment, uint64) {
	target := v.rf[ildp.RegJTarget]
	v.Stats.DispatchRuns++
	rec.Taken = true
	f := v.tc.Lookup(target)
	if f == nil {
		v.profChain(prof.ChainDispatchMiss)
		return v.exitVM(target, rec, from)
	}
	v.Stats.DispatchHits++
	v.profChain(prof.ChainDispatchHit)
	rec.Target = f.IAddr
	return v.chain(f, rec, from)
}

// chain decides a chained entry into f from translated code. The
// transfer's records (rec, then from) are emitted before Poll sees the
// boundary, so an observer finds Stats and the trace in step; a refused
// entry emits them as the episode's last and exits to the VM at f's
// V-start.
func (v *VM) chain(f *tcache.Fragment, rec, from *trace.Rec) (*tcache.Fragment, uint64) {
	if !v.admit(f) {
		next, exitV := v.exitVM(f.VStart, rec, from)
		v.poll()
		return next, exitV
	}
	if v.cfg.Sink != nil {
		v.emitRec(rec, false)
		v.emitRec(from, false)
	}
	v.poll()
	return f, 0
}

// exitVM ends an episode of translated execution at V-address exitV: the
// transfer's records (rec, then from) are emitted as the episode's last,
// and the profiler frame closes with ExitVM. It returns a nil fragment
// and exitV, for takeBranch's callers.
func (v *VM) exitVM(exitV uint64, rec, from *trace.Rec) (*tcache.Fragment, uint64) {
	if v.cfg.Sink != nil {
		v.emitRec(rec, true)
		v.emitRec(from, true)
	}
	v.profExit(prof.ExitVM)
	return nil, exitV
}

// preciseTrap recovers the precise V-ISA state for a trap at
// frag.Insts[idx]: the trapping V-PC comes from the PEI table, and any
// architected registers whose current values live only in accumulators
// are materialised from the accumulator file (§2.2). The visit executed
// exactly Insts[:idx] before the trap, so the PEI index is the number of
// PEI points among them.
func (v *VM) preciseTrap(frag *tcache.Fragment, idx int, inst *ildp.Inst, cause error) error {
	v.leave(idx)
	peiIdx := 0
	for i := range frag.Insts[:idx] {
		if peiPoint(&frag.Insts[i]) {
			peiIdx++
		}
	}
	if peiIdx >= len(frag.PEI) {
		return fmt.Errorf("vm: PEI index %d out of range in fragment %d", peiIdx, frag.ID)
	}
	vpc := frag.PEI[peiIdx]
	if vpc != inst.VPC {
		return fmt.Errorf("vm: PEI table disagrees: table %#x, instruction %#x", vpc, inst.VPC)
	}
	if peiIdx < len(frag.PEIRecover) {
		for _, pair := range frag.PEIRecover[peiIdx] {
			v.rf[gprDest(pair.Reg)] = v.rf[accSlot(pair.Acc)]
		}
	}
	v.cpu.PC = vpc
	return &emu.Trap{PC: vpc, Cause: cause}
}

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

func dispatchEntry(tc *tcache.Cache) uint64 {
	_, addrs := tc.Dispatch()
	return addrs[0]
}

// newRec builds the static half of the trace record of one
// I-instruction at iaddr: the record template. The executor fills in
// MemAddr, Taken, Target and PredHit as the instruction executes.
func newRec(inst *ildp.Inst, iaddr uint64, size uint8) trace.Rec {
	rec := trace.Rec{
		PC:      iaddr,
		Size:    size,
		SrcReg:  [2]uint8{trace.NoReg, trace.NoReg},
		DstReg:  trace.NoReg,
		SrcAcc:  trace.NoAcc,
		DstAcc:  trace.NoAcc,
		VCredit: inst.VCredit,
	}
	si := 0
	if inst.SrcA.Kind == ildp.SrcGPR && inst.SrcA.Reg != alpha.RegZero {
		rec.SrcReg[si] = uint8(inst.SrcA.Reg)
		si++
	}
	if inst.SrcB.Kind == ildp.SrcGPR && inst.SrcB.Reg != alpha.RegZero {
		rec.SrcReg[si] = uint8(inst.SrcB.Reg)
	}
	if inst.ReadsAcc() && inst.Acc != ildp.NoAcc {
		rec.SrcAcc = uint8(inst.Acc)
	}
	if inst.WritesAcc && inst.Acc != ildp.NoAcc {
		rec.DstAcc = uint8(inst.Acc)
	}
	if inst.Dest != alpha.RegZero {
		rec.DstReg = uint8(inst.Dest)
		rec.DstOperational = operationalWrite(inst)
	}
	rec.Class = recClass(inst)
	if inst.IsControl() {
		rec.MemWidth = 0
	} else if inst.Kind == ildp.KindLoad || inst.Kind == ildp.KindStore {
		rec.MemWidth = emu.MemWidth(inst.Op)
	}
	return rec
}

// operationalWrite reports whether the destination-GPR write must reach
// the latency-critical operational register file: inter-strand
// communication values, live-outs, explicit copies, and VM chaining
// latches — but not Modified-form architected-state-only updates (§2.3).
func operationalWrite(inst *ildp.Inst) bool {
	switch inst.Kind {
	case ildp.KindCopyToGPR, ildp.KindSaveVRA, ildp.KindCMOV:
		return true
	}
	if inst.Class == ildp.ClassChain {
		return true
	}
	switch inst.Usage {
	case ildp.UsageLiveOut, ildp.UsageComm:
		return true
	}
	return false
}

func recClass(inst *ildp.Inst) trace.Class {
	switch inst.Kind {
	case ildp.KindALU, ildp.KindCMOV, ildp.KindCopyToGPR, ildp.KindCopyFromGPR,
		ildp.KindSetVPC, ildp.KindLoadETA, ildp.KindSaveVRA, ildp.KindPushRAS,
		ildp.KindDispatchOp:
		if inst.Op == alpha.OpMULL || inst.Op == alpha.OpMULQ || inst.Op == alpha.OpUMULH {
			return trace.ClassMul
		}
		return trace.ClassALU
	case ildp.KindLoad:
		return trace.ClassLoad
	case ildp.KindStore:
		return trace.ClassStore
	case ildp.KindCondBranch, ildp.KindCallTransCond:
		return trace.ClassBranch
	case ildp.KindBranch, ildp.KindCallTrans:
		return trace.ClassJump
	case ildp.KindJumpRet:
		return trace.ClassRet
	case ildp.KindJumpInd:
		return trace.ClassInd
	}
	return trace.ClassALU
}

// emitRec completes and emits a trace record to the attached Sink; callers
// check that one is attached. A nil rec is skipped. endOfRun marks the
// final record of a translated-execution episode (the timing models drain
// and restart with an empty pipeline across mode switches, as in §4.1).
func (v *VM) emitRec(rec *trace.Rec, endOfRun bool) {
	if rec == nil {
		return
	}
	if endOfRun {
		rec.Taken = true
		rec.Target = 0
	}
	v.cfg.Sink.Append(*rec)
}
