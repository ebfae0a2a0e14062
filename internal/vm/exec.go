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

// execTranslated runs translated code starting at frag, following fragment
// links, chaining code, the dual-address RAS, and the shared dispatch
// routine, until control exits back to the VM. It returns the V-ISA
// address at which interpretation (or further lookup) should continue.
//
// The loop does no per-instruction bookkeeping. With a Sink attached, a
// record is a copy of the fragment's template (Fragment.Recs) with its
// dynamic fields filled in. A visit to a fragment always executes a
// prefix of its instructions, so the visit's counters are added in one
// step from the fragment's install-time Tally when the visit ends (leave),
// which happens before anything can observe Stats. A trapping
// instruction's PEI index is found only when it traps.
func (v *VM) execTranslated(frag *tcache.Fragment) (uint64, error) {
	idx := 0
	// An *emu.SemanticsError panic unwinds through here to Run's recover
	// with the visit still open. Close it; like a trapping instruction,
	// the faulting one is not counted.
	defer func() {
		if v.visit != nil {
			v.leave(idx)
		}
	}()
	enterFrag := func(f *tcache.Fragment) {
		frag, idx = f, 0
		v.enter(f)
	}
	enterFrag(frag)
	sink := v.cfg.Sink
	var rec trace.Rec

	for {
		if idx >= len(frag.Insts) {
			v.leave(idx)
			return 0, fmt.Errorf("vm: fell off end of fragment %d (V %#x)", frag.ID, frag.VStart)
		}
		inst := &frag.Insts[idx]
		if sink != nil {
			if frag.Recs == nil {
				// The first visit with a sink: build the templates here,
				// not in enter, which untimed runs inline.
				frag.Recs = fragRecs(frag)
			}
			rec = frag.Recs[idx]
		}

		switch inst.Kind {
		case ildp.KindALU:
			val := emu.EvalOp(inst.Op, v.readSrc(inst, inst.SrcA), v.readSrc(inst, inst.SrcB))
			if inst.WritesAcc {
				v.acc[inst.Acc] = val
			}
			if inst.Dest != alpha.RegZero {
				v.writeGPR(inst.Dest, val)
			}

		case ildp.KindCMOV:
			cond := v.acc[inst.Acc&7]
			if inst.SrcA.Kind == ildp.SrcGPR {
				cond = v.readGPR(inst.SrcA.Reg)
			}
			if emu.EvalCond(inst.Op, cond) {
				v.writeGPR(inst.Dest, v.readSrc(inst, inst.SrcB))
			}

		case ildp.KindLoad:
			addr := v.readSrc(inst, inst.SrcA) + uint64(int64(inst.Disp))
			val, err := emu.LoadMem(v.mem, inst.Op, addr)
			if err != nil {
				return 0, v.preciseTrap(frag, idx, inst, err)
			}
			rec.MemAddr = addr
			if inst.Op == alpha.OpLDQU {
				rec.MemAddr = addr &^ 7
			}
			if inst.WritesAcc {
				v.acc[inst.Acc] = val
			}
			if inst.Dest != alpha.RegZero {
				v.writeGPR(inst.Dest, val)
			}

		case ildp.KindStore:
			addr := v.readSrc(inst, inst.SrcA) + uint64(int64(inst.Disp))
			data := v.readSrc(inst, inst.SrcB)
			if err := emu.StoreMem(v.mem, inst.Op, addr, data); err != nil {
				return 0, v.preciseTrap(frag, idx, inst, err)
			}
			rec.MemAddr = addr
			if inst.Op == alpha.OpSTQU {
				rec.MemAddr = addr &^ 7
			}

		case ildp.KindCopyToGPR:
			v.writeGPR(inst.Dest, v.acc[inst.Acc&7])

		case ildp.KindCopyFromGPR:
			v.acc[inst.Acc] = v.readSrc(inst, inst.SrcA)

		case ildp.KindSetVPC:
			// The implementation PC base for trap recovery; functionally a
			// special-register write.

		case ildp.KindLoadETA:
			v.acc[inst.Acc] = inst.VAddr

		case ildp.KindSaveVRA:
			v.writeGPR(inst.Dest, inst.VAddr)

		case ildp.KindPushRAS:
			target := ildp.NoFrag
			if f := v.tc.Lookup(inst.VAddr); f != nil {
				target = f.ID
			}
			v.ras.push(inst.VAddr, target)

		case ildp.KindCondBranch, ildp.KindCallTransCond:
			taken := emu.EvalCond(inst.Op, v.readSrc(inst, inst.SrcA))
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
			enterFrag(next)
			continue

		case ildp.KindBranch, ildp.KindCallTrans:
			rec.Taken = true
			v.leave(idx + 1)
			next, exitV := v.takeBranch(inst, &rec)
			if next == nil {
				return exitV, nil
			}
			enterFrag(next)
			continue

		case ildp.KindJumpRet:
			target := v.readSrc(inst, inst.SrcA) &^ 3
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
					enterFrag(next)
					continue
				}
			}
			// Miss: latch the target for dispatch and fall through to the
			// unconditional branch that follows.
			v.Stats.RASMisses++
			v.profChain(prof.ChainRASMiss)
			v.writeGPR(ildp.RegJTarget, target)
			rec.Taken = false

		case ildp.KindDispatchOp:
			// Dispatch body work; the lookup happens at the final jump.

		case ildp.KindJumpInd:
			v.leave(idx + 1)
			next, exitV := v.jumpInd(&rec, nil)
			if next == nil {
				return exitV, nil
			}
			enterFrag(next)
			continue

		default:
			v.leave(idx)
			return 0, fmt.Errorf("vm: cannot execute %v", inst.Kind)
		}

		if sink != nil {
			v.emitRec(&rec, false)
		}
		idx++
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

// leave closes the open visit after its first n instructions and adds
// their counters to Stats. Every path out of a visit — a transfer, a
// trap, an error, a recovered panic — calls it before Stats can be seen.
// An instruction that faults is not counted: it retires nothing and
// emits no record, so Stats and the trace stay in step.
func (v *VM) leave(n int) {
	v.Stats.add(v.visit.Tally(n))
	v.visit = nil
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
// routine always runs in full, so its counters are added up front.
func (v *VM) runDispatch(from *trace.Rec) (*tcache.Fragment, uint64) {
	v.Stats.add(v.tc.DispatchTally())
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
	target := v.readGPR(ildp.RegJTarget)
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
			v.cpu.WriteReg(pair.Reg, v.acc[pair.Acc&7])
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

// readGPR reads an I-ISA register: architected GPRs come from the
// interpreter state, the VM-private scratch registers from the VM.
func (v *VM) readGPR(r alpha.Reg) uint64 {
	if r < alpha.NumRegs {
		return v.cpu.ReadReg(r)
	}
	return v.scratch[r-alpha.NumRegs]
}

func (v *VM) writeGPR(r alpha.Reg, val uint64) {
	if r < alpha.NumRegs {
		v.cpu.WriteReg(r, val)
		return
	}
	v.scratch[r-alpha.NumRegs] = val
}

func (v *VM) readSrc(inst *ildp.Inst, s ildp.Src) uint64 {
	switch s.Kind {
	case ildp.SrcAcc:
		return v.acc[inst.Acc&7]
	case ildp.SrcGPR:
		return v.readGPR(s.Reg)
	case ildp.SrcImm:
		return uint64(s.Imm)
	}
	return 0
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
