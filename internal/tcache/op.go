package tcache

import (
	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
)

// Op is one instruction in the VM executor's resolved form: its
// executor opcode and its operands as indices into the executor's
// register file (RFAcc and below). A and B are the sources, D the
// accumulator destination and E the GPR destination, with an absent
// destination resolved to RFDiscard. Imm holds the immediates of
// sources A and B, which the executor loads into RFImmA and RFImmB
// before the instruction runs. An Op holds indices, never pointers, so
// it belongs to no VM.
type Op struct {
	Code       uint8
	A, B, D, E uint8
	Imm        [2]uint64
}

// The executor's register file. Translated code reads and writes only
// these slots: the I-ISA GPRs at their own numbers, then the
// accumulators, two immediate slots, a slot that is always zero and one
// that absorbs writes to no destination. The file has RFSize slots and
// is indexed by uint8, so no access needs a bounds check.
const (
	RFAcc     = ildp.NumGPR                  // accumulator a is RFAcc+a
	RFImmA    = RFAcc + ildp.MaxAccumulators // source A's immediate
	RFImmB    = RFImmA + 1                   // source B's immediate
	RFZero    = RFImmB + 1                   // r31 and absent sources
	RFDiscard = RFZero + 1                   // r31 and absent destinations
	RFSize    = 256
)

// AccSlot is the register-file slot of accumulator a.
func AccSlot(a ildp.AccID) uint8 { return RFAcc + uint8(a&7) }

// srcSlot returns the slot source s of inst reads; imm is the slot an
// immediate is loaded into, and the value to load there.
func srcSlot(inst *ildp.Inst, s ildp.Src, imm uint8) (uint8, uint64) {
	switch s.Kind {
	case ildp.SrcAcc:
		return AccSlot(inst.Acc), 0
	case ildp.SrcGPR:
		if s.Reg == alpha.RegZero {
			return RFZero, 0
		}
		return uint8(s.Reg), 0
	case ildp.SrcImm:
		return imm, uint64(s.Imm)
	}
	return RFZero, 0
}

// GPRDest is the slot a write to GPR r goes to.
func GPRDest(r alpha.Reg) uint8 {
	if r == alpha.RegZero {
		return RFDiscard
	}
	return uint8(r)
}

// Executor opcodes: the one key the executor switches on. Every
// installed instruction has one (ExecOp), resolved with its operands
// once per fragment on its first visit (Fragment.Ops). The hot ALU ops
// have their own opcodes and run inline; every other ALU op goes
// through emu.EvalOp. Each patch pair shares an opcode, so exit
// patching never makes one stale.
const (
	XInvalid uint8 = iota // no executable kind: the run stops with an error
	XALU                  // an ALU op without an inline case: emu.EvalOp
	XAdd                  // lda, addq
	XSub                  // subq
	XAnd
	XXor
	XBis
	XSrl
	XSll
	XS8Add // s8addq
	XCMOV
	XLoad
	XStore
	XMove // copy-to-GPR, copy-from-GPR, load-ETA, save-VRA
	XNop  // set-vpc, dispatch-op
	XPushRAS
	XCondBranch // cond-branch, call-translator-if
	XBranch     // branch, call-translator
	XJumpRet
	XJumpInd

	numBaseCodes
)

// Fused opcodes (superinstructions): one dispatch runs two adjacent
// ops, the pair's first and second component. Fuse writes a fused code
// into the first op of a pair only; both ops keep their operands, and
// the second keeps its own code and index. No first component can
// leave the visit, so the second always runs when the first retires.
const (
	XAddAdd uint8 = numBaseCodes + iota
	XAddLoad
	XLoadAdd
	XSubCondBranch
	XSrlAnd
	XS8AddLoad
	XALUCondBranch
	XAddMove
	XMoveALU
	XAddStore
	XSrlAdd
	XAddS8Add
	XAndAdd
	XXorSrl
	XSrlXor
	XXorAnd
	XLoadSrl
	XSllSub
	XNopLoad
	XMovePushRAS
	XStoreXor
	XAddAnd
	XMoveXor
	XNopAdd
	XAddALU
	XAndALU
	XStoreAdd

	numCodes
)

// fusedPairs lists each fused opcode's two components, in the order of
// the constants above.
var fusedPairs = [numCodes - numBaseCodes][2]uint8{
	{XAdd, XAdd},
	{XAdd, XLoad},
	{XLoad, XAdd},
	{XSub, XCondBranch},
	{XSrl, XAnd},
	{XS8Add, XLoad},
	{XALU, XCondBranch},
	{XAdd, XMove},
	{XMove, XALU},
	{XAdd, XStore},
	{XSrl, XAdd},
	{XAdd, XS8Add},
	{XAnd, XAdd},
	{XXor, XSrl},
	{XSrl, XXor},
	{XXor, XAnd},
	{XLoad, XSrl},
	{XSll, XSub},
	{XNop, XLoad},
	{XMove, XPushRAS},
	{XStore, XXor},
	{XAdd, XAnd},
	{XMove, XXor},
	{XNop, XAdd},
	{XAdd, XALU},
	{XAnd, XALU},
	{XStore, XAdd},
}

// fuseTable[a][b] is the fused opcode of the pair (a, b), or XInvalid
// when the pair does not fuse.
var fuseTable = func() (t [numCodes][numCodes]uint8) {
	for i, p := range fusedPairs {
		t[p[0]][p[1]] = numBaseCodes + uint8(i)
	}
	return t
}()

// fusedCode returns the fused opcode of the pair (a, b); ok is false
// when the pair does not fuse.
func fusedCode(a, b uint8) (code uint8, ok bool) {
	if a >= numCodes || b >= numCodes {
		return XInvalid, false
	}
	code = fuseTable[a][b]
	return code, code != XInvalid
}

// Components returns the two component opcodes of a fused opcode; ok is
// false when code is not fused.
func Components(code uint8) (first, second uint8, ok bool) {
	if code < numBaseCodes || code >= numCodes {
		return code, XInvalid, false
	}
	p := fusedPairs[code-numBaseCodes]
	return p[0], p[1], true
}

// ExecOp returns the executor opcode of inst.
func ExecOp(inst *ildp.Inst) uint8 {
	switch inst.Kind {
	case ildp.KindALU:
		switch inst.Op {
		case alpha.OpLDA, alpha.OpADDQ:
			return XAdd
		case alpha.OpSUBQ:
			return XSub
		case alpha.OpAND:
			return XAnd
		case alpha.OpXOR:
			return XXor
		case alpha.OpBIS:
			return XBis
		case alpha.OpSRL:
			return XSrl
		case alpha.OpSLL:
			return XSll
		case alpha.OpS8ADDQ:
			return XS8Add
		}
		return XALU
	case ildp.KindCMOV:
		return XCMOV
	case ildp.KindLoad:
		return XLoad
	case ildp.KindStore:
		return XStore
	case ildp.KindCopyToGPR, ildp.KindCopyFromGPR, ildp.KindLoadETA, ildp.KindSaveVRA:
		return XMove
	case ildp.KindSetVPC, ildp.KindDispatchOp:
		return XNop
	case ildp.KindPushRAS:
		return XPushRAS
	case ildp.KindCondBranch, ildp.KindCallTransCond:
		return XCondBranch
	case ildp.KindBranch, ildp.KindCallTrans:
		return XBranch
	case ildp.KindJumpRet:
		return XJumpRet
	case ildp.KindJumpInd:
		return XJumpInd
	}
	return XInvalid
}

// Resolve returns the resolved form of inst: its executor opcode and
// its operands as register-file slots. Results go to D (the
// accumulator, when inst writes one) and E (the destination GPR); a
// move copies source A to both. A register number past the I-ISA's,
// which would alias another slot, resolves to XInvalid.
func Resolve(inst *ildp.Inst) Op {
	op := Op{Code: ExecOp(inst), D: RFDiscard, E: GPRDest(inst.Dest)}
	for _, s := range [...]ildp.Src{inst.SrcA, inst.SrcB, ildp.GPRSrc(inst.Dest)} {
		if s.Kind == ildp.SrcGPR && s.Reg >= ildp.NumGPR {
			op.Code = XInvalid
		}
	}
	op.A, op.Imm[0] = srcSlot(inst, inst.SrcA, RFImmA)
	op.B, op.Imm[1] = srcSlot(inst, inst.SrcB, RFImmB)
	if inst.WritesAcc {
		op.D = AccSlot(inst.Acc)
	}
	switch inst.Kind {
	case ildp.KindCMOV:
		// The condition is a GPR source or the accumulator.
		if inst.SrcA.Kind != ildp.SrcGPR {
			op.A = AccSlot(inst.Acc)
		}
		op.D = RFDiscard
	case ildp.KindCopyToGPR:
		op.A, op.D = AccSlot(inst.Acc), RFDiscard
	case ildp.KindCopyFromGPR:
		op.D, op.E = AccSlot(inst.Acc), RFDiscard
	case ildp.KindLoadETA:
		op.A, op.Imm[0], op.D, op.E = RFImmA, inst.VAddr, AccSlot(inst.Acc), RFDiscard
	case ildp.KindSaveVRA:
		op.A, op.Imm[0], op.D = RFImmA, inst.VAddr, RFDiscard
	}
	return op
}

// ResolveAll builds the one-to-one resolved form of insts.
func ResolveAll(insts []ildp.Inst) []Op {
	ops := make([]Op, len(insts))
	for i := range insts {
		ops[i] = Resolve(&insts[i])
	}
	return ops
}

// Fuse rewrites ops in place for an executor that emits no per-
// instruction records: pairing greedily from the left, it gives the
// first op of each adjacent pair in the fusion table the pair's fused
// opcode. It changes no operand and no second component, and allocates
// nothing.
func Fuse(ops []Op) {
	for i := 0; i+1 < len(ops); i++ {
		if code, ok := fusedCode(ops[i].Code, ops[i+1].Code); ok {
			ops[i].Code = code
			i++
		}
	}
}
