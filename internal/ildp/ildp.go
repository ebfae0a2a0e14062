// Package ildp defines the accumulator-oriented implementation ISA (I-ISA)
// of the co-designed virtual machine, in both the Basic and Modified forms
// studied by Kim & Smith (CGO 2003).
//
// Instructions link chains of dependent operations ("strands") through a
// small set of accumulators; inter-strand communication goes through the
// general-purpose registers (GPRs). Each instruction may name at most one
// GPR and at most one accumulator among its sources (a conditional-move
// select, which carries its condition in a temp accumulator, is the single
// documented exception). In the Basic form, architected GPR state is
// maintained with explicit copy-to-GPR instructions; in the Modified form
// every result-producing instruction carries a destination GPR specifier,
// so no copies are needed for precise traps.
//
// The package models encoded instruction sizes (16-bit / 32-bit / special
// 64-bit forms) for static-code-size statistics and instruction-cache
// simulation, but instructions are otherwise represented structurally.
package ildp

import (
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/alpha"
)

// AccID identifies an accumulator (equivalently, a strand identifier in
// the Modified form).
type AccID uint8

// The I-ISA register file is larger than the 32 architected Alpha GPRs:
// registers 32..63 are private to the co-designed VM and invisible to
// V-ISA software. RegJTarget carries the V-ISA target address of an
// indirect jump into the shared dispatch routine; ScratchBase..NumGPR-1
// hold spilled temporaries.
const (
	NumGPR                = 64
	RegJTarget  alpha.Reg = 32
	ScratchBase alpha.Reg = 33
)

// NoAcc marks the absence of an accumulator operand.
const NoAcc AccID = 0xFF

// DefaultAccumulators is the number of logical accumulators used throughout
// the paper's evaluation (§4.1); MaxAccumulators is the Fig. 9 variant.
const (
	DefaultAccumulators = 4
	MaxAccumulators     = 8
)

// Form selects the I-ISA variant.
type Form uint8

const (
	// Basic is the original ISA of [Kim & Smith, ISCA 2002]: one GPR per
	// instruction, architected state maintained by explicit copy-to-GPR
	// instructions.
	Basic Form = iota
	// Modified embeds a destination GPR in every result-producing
	// instruction, eliminating state-maintenance copies (CGO 2003 §2.3).
	Modified
)

var formNames = [...]string{"basic", "modified"}

func (f Form) String() string {
	if f == Basic {
		return formNames[Basic]
	}
	return formNames[Modified]
}

// ParseForm returns the form String spells as name.
func ParseForm(name string) (Form, error) {
	for f, n := range formNames {
		if n == name {
			return Form(f), nil
		}
	}
	return 0, fmt.Errorf("ildp: unknown I-ISA form %q (want %s)", name, strings.Join(formNames[:], ", "))
}

// SrcKind classifies an instruction source operand.
type SrcKind uint8

const (
	SrcNone SrcKind = iota
	SrcAcc          // the instruction's own accumulator (strand value)
	SrcGPR          // a general-purpose register
	SrcImm          // an immediate
)

// Src is one source operand.
type Src struct {
	Kind SrcKind
	Reg  alpha.Reg // valid when Kind == SrcGPR
	Imm  int64     // valid when Kind == SrcImm
}

// Convenience constructors.
func AccSrc() Src            { return Src{Kind: SrcAcc} }
func GPRSrc(r alpha.Reg) Src { return Src{Kind: SrcGPR, Reg: r} }
func ImmSrc(v int64) Src     { return Src{Kind: SrcImm, Imm: v} }

func (s Src) String() string {
	switch s.Kind {
	case SrcNone:
		return "-"
	case SrcAcc:
		return "A"
	case SrcGPR:
		return "R" + fmt.Sprint(uint8(s.Reg))
	case SrcImm:
		return fmt.Sprintf("#%d", s.Imm)
	}
	return "?"
}

// Kind is the I-ISA instruction kind.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Computation.
	KindALU  // Acc <- SrcA op SrcB
	KindCMOV // Acc <- cond(tempAcc) ? SrcB : old value (see package comment)

	// Memory. The address comes from SrcA (accumulator or GPR); the I-ISA
	// performs no address arithmetic in memory instructions.
	KindLoad  // Acc <- mem[SrcA]
	KindStore // mem[SrcA] <- SrcB

	// Explicit copies (Basic form, spills, and strand starts).
	KindCopyToGPR   // Dest <- Acc
	KindCopyFromGPR // Acc <- SrcA(GPR)

	// Control transfer within translated code.
	KindCondBranch // if cond(SrcA): P <- Target
	KindBranch     // P <- Target

	// VM transitions.
	KindCallTransCond // if cond(SrcA): exit to translator for VTarget
	KindCallTrans     // exit to translator for VTarget

	// Indirect control.
	KindJumpRet // dual-address-RAS return: pop (V,I); if V==SrcA jump I, else fall through
	KindJumpInd // register-indirect jump into the dispatch table (dispatch tail)

	// Special co-designed VM instructions.
	KindSetVPC  // special register <- VAddr (first instruction of a fragment)
	KindLoadETA // Acc <- embedded translation-time target address (VAddr)
	KindSaveVRA // Dest <- embedded V-ISA return address (VAddr)
	KindPushRAS // push (VAddr, I-addr of following instruction's fragment link)

	// Synthetic marker for the shared dispatch routine body.
	KindDispatchOp // one instruction of dispatch code (lookup is magic at the tail)
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid", KindALU: "alu", KindCMOV: "cmov",
	KindLoad: "load", KindStore: "store",
	KindCopyToGPR: "copy-to-gpr", KindCopyFromGPR: "copy-from-gpr",
	KindCondBranch: "cond-branch", KindBranch: "branch",
	KindCallTransCond: "call-translator-if", KindCallTrans: "call-translator",
	KindJumpRet: "ret-dualras", KindJumpInd: "jump-indirect",
	KindSetVPC: "set-vpc", KindLoadETA: "load-eta", KindSaveVRA: "save-vra",
	KindPushRAS: "push-dual-ras", KindDispatchOp: "dispatch-op",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Class categorises instructions for the paper's overhead statistics.
type Class uint8

const (
	ClassCore    Class = iota // direct translation of a V-ISA instruction
	ClassAddr                 // address-computation half of a decomposed memory op
	ClassCopy                 // copy-to/from-GPR state/spill overhead
	ClassChain                // fragment-chaining overhead (compare-and-branch, stubs, dispatch)
	ClassSpecial              // set-VPC and friends
)

var classNames = [...]string{"core", "addr", "copy", "chain", "special"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// NoFrag marks an unlinked control-transfer target; FragDispatch marks a
// transfer into the shared dispatch routine.
const (
	NoFrag       int32 = -1
	FragDispatch int32 = -2
)

// Inst is one I-ISA instruction. Instructions are represented structurally
// (not bit-encoded); EncodedSize models the 16/32-bit footprint.
type Inst struct {
	Kind Kind
	// Op carries the Alpha operation whose semantics the instruction
	// borrows: the ALU function for KindALU, the condition for
	// KindCondBranch / KindCallTransCond / KindCMOV, and the memory width
	// for KindLoad / KindStore.
	Op alpha.Op

	// Acc is the accumulator (strand) the instruction reads and/or writes.
	Acc       AccID
	WritesAcc bool

	// SrcA, SrcB are the source operands in the order of the underlying
	// Alpha operation (Ra, Rb).
	SrcA, SrcB Src

	// Dest is the architected destination GPR. In the Modified form it is
	// carried by every result-producing instruction; in the Basic form it
	// is used only by copy-to-GPR and save-VRA. RegZero means none.
	Dest alpha.Reg

	// ArchDest is the architected register whose current value this
	// instruction's result represents, in both forms (metadata for
	// precise-trap accumulator recovery; not an encoded field).
	ArchDest alpha.Reg

	// Disp is the memory displacement of straightened-Alpha loads and
	// stores (the accumulator forms perform no address arithmetic and
	// always carry 0).
	Disp int32

	// VPC is the V-ISA address of the source instruction this was
	// translated from (0 for pure overhead instructions).
	VPC uint64

	// VAddr is the embedded address of special instructions, and the
	// V-ISA target of control transfers.
	VAddr uint64

	// Frag is the translation-cache fragment ID this control transfer is
	// linked to, or NoFrag when the target is untranslated (the transfer
	// then exits to the VM). Patching a fragment link mutates this field.
	Frag int32

	Class Class

	// VCredit is the number of V-ISA instructions architecturally retired
	// when this I-ISA instruction commits. Exactly one instruction of each
	// translated group carries credit 1; code-straightened-away direct
	// branches move their credit onto the following instruction, so V-ISA
	// instruction counts (the paper's IPC basis) can be recovered from
	// translated-code execution. Removed NOPs carry no credit, matching
	// the paper's exclusion of NOPs from V-ISA program characteristics.
	VCredit uint8

	// Usage is the output-usage ("globalness") classification of the value
	// this instruction produces, for the paper's Fig. 7 statistics.
	Usage UsageClass
}

// UsageClass is the paper's §3.3 output register value usage category.
type UsageClass uint8

const (
	UsageNone         UsageClass = iota // instruction produces no classified value
	UsageNoUser                         // dead before overwrite, no exit/PEI exposure
	UsageLocal                          // used once, stays in the accumulator
	UsageTemp                           // decomposition temporary (address, CMOV condition)
	UsageLiveOut                        // live on superblock exit
	UsageComm                           // used more than once before overwrite
	UsageLocalGlobal                    // local, but saved to a GPR for an exit/PEI (Basic)
	UsageNoUserGlobal                   // dead, but saved to a GPR for an exit/PEI (Basic)
)

var usageNames = [...]string{
	"none", "no user", "local", "temp", "liveout global",
	"communication global", "local->global", "no user->global",
}

func (u UsageClass) String() string {
	if int(u) < len(usageNames) {
		return usageNames[u]
	}
	return fmt.Sprintf("usage(%d)", uint8(u))
}

// ReadsAcc reports whether the instruction structurally reads its
// accumulator (valid before accumulator assignment has run).
func (i *Inst) ReadsAcc() bool {
	switch i.Kind {
	case KindCMOV:
		return true // condition lives in the accumulator
	case KindCopyToGPR:
		return true
	}
	return i.SrcA.Kind == SrcAcc || i.SrcB.Kind == SrcAcc
}

// GPR returns the single GPR the instruction names among its sources, or
// RegZero.
func (i *Inst) GPR() alpha.Reg {
	if i.SrcA.Kind == SrcGPR && i.SrcA.Reg != alpha.RegZero {
		return i.SrcA.Reg
	}
	if i.SrcB.Kind == SrcGPR && i.SrcB.Reg != alpha.RegZero {
		return i.SrcB.Reg
	}
	return alpha.RegZero
}

// IsControl reports whether the instruction can redirect fetch.
func (i *Inst) IsControl() bool {
	switch i.Kind {
	case KindCondBranch, KindBranch, KindCallTransCond, KindCallTrans,
		KindJumpRet, KindJumpInd:
		return true
	}
	return false
}

// IsPEI reports whether the instruction is a PEI-table point: a load, a
// store or a (possibly patched) conditional branch translated from a
// V-ISA instruction. Chain-class instructions, such as compare branches,
// are not. The executor, the verifiers and the translator's recovery
// table count PEI points with it; the translator emits the PEI table
// itself from its own per-node flag, so rule P1 still catches a
// disagreement between the two.
func (i *Inst) IsPEI() bool {
	if i.Class != ClassCore {
		return false
	}
	switch i.Kind {
	case KindLoad, KindStore, KindCallTransCond, KindCondBranch:
		return true
	}
	return false
}

// IsExit reports whether the instruction may leave translated code for the
// VM (translator/interpreter).
func (i *Inst) IsExit() bool {
	switch i.Kind {
	case KindCallTransCond, KindCallTrans:
		return true
	case KindCondBranch, KindBranch:
		return i.Frag == NoFrag
	}
	return false
}

// ProducesResult reports whether the instruction produces a register value
// (accumulator or GPR) that the Modified form must tag with a destination
// GPR for architected state.
func (i *Inst) ProducesResult() bool {
	switch i.Kind {
	case KindALU, KindCMOV, KindLoad, KindCopyFromGPR, KindSaveVRA, KindLoadETA:
		return true
	}
	return false
}

// Validate checks the I-ISA operand constraints: at most one GPR among the
// sources, and at most one accumulator (the instruction's own), except for
// the documented CMOV select. It returns nil if the instruction is legal.
func (i *Inst) Validate(form Form) error {
	if i.NumGPRSources() > 1 {
		return fmt.Errorf("ildp: %v names two GPR sources", i.Kind)
	}
	accs := i.NumAccSources()
	if accs > 1 && i.Kind != KindCMOV {
		return fmt.Errorf("ildp: %v names two accumulator sources", i.Kind)
	}
	if i.WritesAcc && i.Acc == NoAcc {
		return fmt.Errorf("ildp: %v writes accumulator but has none assigned", i.Kind)
	}
	if accs > 0 && i.Acc == NoAcc {
		return fmt.Errorf("ildp: %v reads accumulator but has none assigned", i.Kind)
	}
	if form == Basic && i.ProducesResult() &&
		i.Kind != KindSaveVRA && i.Kind != KindCMOV && i.Dest != alpha.RegZero {
		return fmt.Errorf("ildp: basic-form %v carries a destination GPR", i.Kind)
	}
	return nil
}

// EncodedSize returns the modelled encoded size of the instruction in
// bytes under the given ISA form: 2 for 16-bit forms (register-only ALU,
// copies, simple loads/stores), 4 for immediate and branch forms, 8 for
// specials that embed a full address. In the Modified form, 16-bit
// result-producing instructions grow to 32 bits to carry the destination
// GPR specifier (§2.3).
func (i *Inst) EncodedSize(form Form) int {
	var base int
	switch i.Kind {
	case KindALU, KindCMOV:
		if i.SrcA.Kind == SrcImm || i.SrcB.Kind == SrcImm {
			base = 4
		} else {
			base = 2
		}
	case KindLoad, KindStore:
		if i.Disp != 0 {
			base = 4 // fused displacement needs an immediate field
		} else {
			base = 2
		}
	case KindCopyToGPR, KindCopyFromGPR:
		base = 2
	case KindCondBranch, KindBranch, KindCallTransCond, KindCallTrans,
		KindJumpRet, KindJumpInd, KindDispatchOp:
		base = 4
	case KindSetVPC, KindLoadETA, KindSaveVRA, KindPushRAS:
		base = 8
	default:
		base = 4
	}
	if form == Modified && base == 2 && i.ProducesResult() && i.Dest != alpha.RegZero {
		base = 4
	}
	return base
}

// String renders the instruction in the paper's RTL-like notation, e.g.
// "R3 (A0) <- mem[R16]" for the Modified form or "A0 <- A0 xor R1" for the
// Basic form.
func (i *Inst) String() string {
	acc := func() string { return fmt.Sprintf("A%d", i.Acc) }
	dst := func() string {
		if i.Dest != alpha.RegZero {
			return fmt.Sprintf("R%d (%s)", uint8(i.Dest), acc())
		}
		return acc()
	}
	src := func(s Src) string {
		if s.Kind == SrcAcc {
			return acc()
		}
		return s.String()
	}
	switch i.Kind {
	case KindALU:
		if i.SrcB.Kind == SrcNone {
			return fmt.Sprintf("%s <- %v %s", dst(), i.Op, src(i.SrcA))
		}
		return fmt.Sprintf("%s <- %s %v %s", dst(), src(i.SrcA), i.Op, src(i.SrcB))
	case KindCMOV:
		return fmt.Sprintf("%s <- if %v(%s): %s", dst(), i.Op, acc(), src(i.SrcB))
	case KindLoad:
		return fmt.Sprintf("%s <- mem[%s]", dst(), src(i.SrcA))
	case KindStore:
		return fmt.Sprintf("mem[%s] <- %s", src(i.SrcA), src(i.SrcB))
	case KindCopyToGPR:
		return fmt.Sprintf("R%d <- %s", uint8(i.Dest), acc())
	case KindCopyFromGPR:
		return fmt.Sprintf("%s <- %s", dst(), src(i.SrcA))
	case KindCondBranch:
		return fmt.Sprintf("P <- %#x, if %v(%s) [frag %d]", i.VAddr, i.Op, src(i.SrcA), i.Frag)
	case KindBranch:
		return fmt.Sprintf("P <- %#x [frag %d]", i.VAddr, i.Frag)
	case KindCallTransCond:
		return fmt.Sprintf("call-translator %#x, if %v(%s)", i.VAddr, i.Op, src(i.SrcA))
	case KindCallTrans:
		return fmt.Sprintf("call-translator %#x", i.VAddr)
	case KindJumpRet:
		return fmt.Sprintf("ret-dualras %s", src(i.SrcA))
	case KindJumpInd:
		return fmt.Sprintf("P <- dispatch[%s]", src(i.SrcA))
	case KindSetVPC:
		return fmt.Sprintf("vpc <- %#x", i.VAddr)
	case KindLoadETA:
		return fmt.Sprintf("%s <- eta %#x", dst(), i.VAddr)
	case KindSaveVRA:
		return fmt.Sprintf("R%d <- vra %#x", uint8(i.Dest), i.VAddr)
	case KindPushRAS:
		return fmt.Sprintf("push-dual-ras %#x", i.VAddr)
	case KindDispatchOp:
		return "dispatch-op"
	}
	return "<invalid>"
}
