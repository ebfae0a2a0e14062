// Package alpha implements the Alpha AXP (EV6 integer subset) instruction
// set used as the source (virtual) ISA of the co-designed virtual machine.
//
// The package provides faithful bit-level instruction encodings, a decoder,
// an encoder, and a disassembler. Floating-point opcodes are recognised but
// decode to OpUnsupported; the dynamic binary translator rejects them.
package alpha

import "fmt"

// Reg is an Alpha integer register number in [0,31]. R31 always reads as
// zero and writes to it are discarded.
type Reg uint8

// Architectural register constants following the standard Alpha calling
// convention names.
const (
	RegV0   Reg = 0  // function return value
	RegT0   Reg = 1  // temporaries t0..t7 = r1..r8
	RegS0   Reg = 9  // saved s0..s5 = r9..r14
	RegFP   Reg = 15 // frame pointer (s6)
	RegA0   Reg = 16 // arguments a0..a5 = r16..r21
	RegT8   Reg = 22 // temporaries t8..t11 = r22..r25
	RegRA   Reg = 26 // return address
	RegPV   Reg = 27 // procedure value (t12)
	RegAT   Reg = 28 // assembler temporary
	RegGP   Reg = 29 // global pointer
	RegSP   Reg = 30 // stack pointer
	RegZero Reg = 31 // hardwired zero
)

// NumRegs is the number of architected integer registers.
const NumRegs = 32

var regNames = [NumRegs]string{
	"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
	"t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
	"a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9",
	"t10", "t11", "ra", "pv", "at", "gp", "sp", "zero",
}

// String returns the conventional software name of the register (v0, t0,
// a0, sp, zero, ...).
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d?", uint8(r))
}

// GoString returns the raw architectural name rN.
func (r Reg) GoString() string { return fmt.Sprintf("r%d", uint8(r)) }

// Word is a raw 32-bit Alpha instruction word.
type Word uint32

// InstBytes is the size in bytes of every Alpha instruction.
const InstBytes = 4

// Format identifies the bit-level layout of an instruction word.
type Format uint8

// Instruction formats defined by the Alpha architecture.
const (
	FormatInvalid Format = iota
	FormatPAL            // CALL_PAL: opcode[31:26] palcode[25:0]
	FormatMemory         // opcode ra rb disp16
	FormatMemJump        // opcode 0x1A: ra rb hint (disp[15:14] selects JMP/JSR/RET/JSR_C)
	FormatMemFunc        // opcode 0x18: ra rb func16 (MB, TRAPB, RPCC, ...)
	FormatBranch         // opcode ra disp21 (longword offsets)
	FormatOperate        // opcode ra {rb|lit} func7 rc
)

// Op identifies a decoded Alpha operation: the primary opcode combined with
// the function code for operate-format instructions.
type Op uint16

// Decoded operations. The order groups operations by semantic class; use
// the Is* predicates on Inst rather than relying on Op ranges.
const (
	OpInvalid Op = iota
	OpUnsupported

	// PAL
	OpCallPAL

	// Memory: address loads
	OpLDA
	OpLDAH

	// Memory: loads
	OpLDBU
	OpLDWU
	OpLDL
	OpLDQ
	OpLDQU
	OpLDLL
	OpLDQL

	// Memory: stores
	OpSTB
	OpSTW
	OpSTL
	OpSTQ
	OpSTQU
	OpSTLC
	OpSTQC

	// Integer arithmetic (opcode 0x10)
	OpADDL
	OpS4ADDL
	OpS8ADDL
	OpSUBL
	OpS4SUBL
	OpS8SUBL
	OpADDQ
	OpS4ADDQ
	OpS8ADDQ
	OpSUBQ
	OpS4SUBQ
	OpS8SUBQ
	OpCMPEQ
	OpCMPLT
	OpCMPLE
	OpCMPULT
	OpCMPULE
	OpCMPBGE

	// Integer logical (opcode 0x11)
	OpAND
	OpBIC
	OpBIS
	OpORNOT
	OpXOR
	OpEQV
	OpCMOVEQ
	OpCMOVNE
	OpCMOVLT
	OpCMOVGE
	OpCMOVLE
	OpCMOVGT
	OpCMOVLBS
	OpCMOVLBC
	OpAMASK   // architecture mask query
	OpIMPLVER // implementation version query

	// Shifts and byte manipulation (opcode 0x12)
	OpSLL
	OpSRL
	OpSRA
	OpEXTBL
	OpEXTWL
	OpEXTLL
	OpEXTQL
	OpEXTWH
	OpEXTLH
	OpEXTQH
	OpINSBL
	OpINSWL
	OpINSLL
	OpINSQL
	OpINSWH
	OpINSLH
	OpINSQH
	OpMSKBL
	OpMSKWL
	OpMSKLL
	OpMSKQL
	OpMSKWH
	OpMSKLH
	OpMSKQH
	OpZAP
	OpZAPNOT

	// Integer multiply (opcode 0x13)
	OpMULL
	OpMULQ
	OpUMULH

	// Miscellaneous (opcode 0x18)
	OpTRAPB
	OpEXCB
	OpMB
	OpWMB
	OpRPCC
	OpFETCH // prefetch hints: no architectural effect
	OpFETCHM
	OpECB
	OpWH64

	// Unconditional branches
	OpBR
	OpBSR

	// Conditional branches
	OpBEQ
	OpBNE
	OpBLT
	OpBLE
	OpBGT
	OpBGE
	OpBLBC
	OpBLBS

	// Register-indirect jumps (opcode 0x1A)
	OpJMP
	OpJSR
	OpRET
	OpJSRCoroutine
)

var opNames = map[Op]string{
	OpInvalid: "<invalid>", OpUnsupported: "<unsupported>",
	OpCallPAL: "call_pal",
	OpLDA:     "lda", OpLDAH: "ldah",
	OpLDBU: "ldbu", OpLDWU: "ldwu", OpLDL: "ldl", OpLDQ: "ldq",
	OpLDQU: "ldq_u", OpLDLL: "ldl_l", OpLDQL: "ldq_l",
	OpSTB: "stb", OpSTW: "stw", OpSTL: "stl", OpSTQ: "stq",
	OpSTQU: "stq_u", OpSTLC: "stl_c", OpSTQC: "stq_c",
	OpADDL: "addl", OpS4ADDL: "s4addl", OpS8ADDL: "s8addl",
	OpSUBL: "subl", OpS4SUBL: "s4subl", OpS8SUBL: "s8subl",
	OpADDQ: "addq", OpS4ADDQ: "s4addq", OpS8ADDQ: "s8addq",
	OpSUBQ: "subq", OpS4SUBQ: "s4subq", OpS8SUBQ: "s8subq",
	OpCMPEQ: "cmpeq", OpCMPLT: "cmplt", OpCMPLE: "cmple",
	OpCMPULT: "cmpult", OpCMPULE: "cmpule", OpCMPBGE: "cmpbge",
	OpAND: "and", OpBIC: "bic", OpBIS: "bis", OpORNOT: "ornot",
	OpXOR: "xor", OpEQV: "eqv",
	OpCMOVEQ: "cmoveq", OpCMOVNE: "cmovne", OpCMOVLT: "cmovlt",
	OpCMOVGE: "cmovge", OpCMOVLE: "cmovle", OpCMOVGT: "cmovgt",
	OpCMOVLBS: "cmovlbs", OpCMOVLBC: "cmovlbc",
	OpAMASK: "amask", OpIMPLVER: "implver",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpEXTBL: "extbl", OpEXTWL: "extwl", OpEXTLL: "extll", OpEXTQL: "extql",
	OpEXTWH: "extwh", OpEXTLH: "extlh", OpEXTQH: "extqh",
	OpINSBL: "insbl", OpINSWL: "inswl", OpINSLL: "insll", OpINSQL: "insql",
	OpINSWH: "inswh", OpINSLH: "inslh", OpINSQH: "insqh",
	OpMSKBL: "mskbl", OpMSKWL: "mskwl", OpMSKLL: "mskll", OpMSKQL: "mskql",
	OpMSKWH: "mskwh", OpMSKLH: "msklh", OpMSKQH: "mskqh",
	OpZAP: "zap", OpZAPNOT: "zapnot",
	OpMULL: "mull", OpMULQ: "mulq", OpUMULH: "umulh",
	OpTRAPB: "trapb", OpEXCB: "excb", OpMB: "mb", OpWMB: "wmb", OpRPCC: "rpcc",
	OpFETCH: "fetch", OpFETCHM: "fetch_m", OpECB: "ecb", OpWH64: "wh64",
	OpBR: "br", OpBSR: "bsr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBLE: "ble",
	OpBGT: "bgt", OpBGE: "bge", OpBLBC: "blbc", OpBLBS: "blbs",
	OpJMP: "jmp", OpJSR: "jsr", OpRET: "ret", OpJSRCoroutine: "jsr_coroutine",
}

// String returns the assembler mnemonic for the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// PAL function codes used by this VM's minimal PAL surface.
const (
	PALHalt    = 0x0000 // stop the machine
	PALBpt     = 0x0080 // breakpoint trap
	PALCallSys = 0x0083 // system call: v0 = number, a0.. = args
)

// System call numbers for PALCallSys, loosely modelled on OSF/1.
const (
	SysExit    = 1 // a0 = exit status
	SysPutChar = 2 // a0 = byte to emit on the console
	SysGetTime = 3 // returns a deterministic virtual time in v0
)

// Inst is a decoded Alpha instruction.
type Inst struct {
	Raw    Word   // original instruction word
	Op     Op     // decoded operation
	Format Format // bit-level format
	Ra     Reg    // first register field
	Rb     Reg    // second register field (memory base / operate source)
	Rc     Reg    // operate destination
	Disp   int32  // sign-extended displacement (16-bit memory, 21-bit branch)
	Lit    uint8  // 8-bit literal for operate format
	UseLit bool   // operate format uses Lit instead of Rb
	PALFn  uint32 // PAL function code (FormatPAL)
	Hint   uint16 // jump hint bits (FormatMemJump)
}

// Opcode returns the primary 6-bit opcode of the raw word.
func (w Word) Opcode() uint32 { return uint32(w) >> 26 }

// IsBranch reports whether the instruction transfers control (conditional
// or unconditional, direct or indirect, including PAL calls that trap).
func (i *Inst) IsBranch() bool {
	return i.IsCondBranch() || i.IsDirectJump() || i.IsIndirect() || i.Op == OpCallPAL
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i *Inst) IsCondBranch() bool {
	switch i.Op {
	case OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE, OpBLBC, OpBLBS:
		return true
	}
	return false
}

// IsDirectJump reports whether the instruction is an unconditional direct
// branch (BR or BSR).
func (i *Inst) IsDirectJump() bool { return i.Op == OpBR || i.Op == OpBSR }

// IsIndirect reports whether the instruction is a register-indirect jump.
func (i *Inst) IsIndirect() bool {
	switch i.Op {
	case OpJMP, OpJSR, OpRET, OpJSRCoroutine:
		return true
	}
	return false
}

// IsCall reports whether the instruction saves a return address (BSR or JSR).
func (i *Inst) IsCall() bool { return i.Op == OpBSR || i.Op == OpJSR }

// IsReturn reports whether the instruction is a subroutine return.
func (i *Inst) IsReturn() bool { return i.Op == OpRET }

// IsLoad reports whether the instruction reads memory.
func (i *Inst) IsLoad() bool {
	switch i.Op {
	case OpLDBU, OpLDWU, OpLDL, OpLDQ, OpLDQU, OpLDLL, OpLDQL:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes memory.
func (i *Inst) IsStore() bool {
	switch i.Op {
	case OpSTB, OpSTW, OpSTL, OpSTQ, OpSTQU, OpSTLC, OpSTQC:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses memory.
func (i *Inst) IsMem() bool { return i.IsLoad() || i.IsStore() }

// IsCMOV reports whether the instruction is a conditional move.
func (i *Inst) IsCMOV() bool {
	switch i.Op {
	case OpCMOVEQ, OpCMOVNE, OpCMOVLT, OpCMOVGE, OpCMOVLE, OpCMOVGT, OpCMOVLBS, OpCMOVLBC:
		return true
	}
	return false
}

// IsNOP reports whether the instruction has no architectural effect. The
// canonical Alpha NOP is "bis r31,r31,r31"; "lda r31, d(rX)" and "ldq_u
// r31, d(rX)" (unop) are also treated as NOPs, as are memory barriers in
// this uniprocessor model.
func (i *Inst) IsNOP() bool {
	switch i.Op {
	case OpMB, OpWMB, OpTRAPB, OpEXCB, OpFETCH, OpFETCHM, OpECB, OpWH64:
		return true
	case OpLDA, OpLDAH, OpLDQU:
		return i.Ra == RegZero
	}
	if i.Format == FormatOperate && i.Rc == RegZero && !i.IsCMOV() {
		return true
	}
	return false
}

// MayTrap reports whether the instruction is a potentially excepting
// instruction (PEI) for the purpose of precise trap recovery: memory
// accesses (alignment / access faults) and PAL calls.
func (i *Inst) MayTrap() bool { return i.IsMem() || i.Op == OpCallPAL }

// BranchTarget returns the target address of a direct branch located at pc.
// It must only be called for conditional branches, BR, and BSR.
func (i *Inst) BranchTarget(pc uint64) uint64 {
	return pc + InstBytes + uint64(int64(i.Disp))*InstBytes
}

// Dests returns the architected destination register of the instruction,
// or RegZero if it produces no register value.
func (i *Inst) Dest() Reg {
	switch i.Format {
	case FormatOperate:
		return i.Rc
	case FormatMemory:
		if i.IsLoad() || i.Op == OpLDA || i.Op == OpLDAH {
			return i.Ra
		}
	case FormatMemJump:
		return i.Ra // JMP/JSR write the return address to Ra
	case FormatBranch:
		if i.Op == OpBSR || i.Op == OpBR {
			return i.Ra
		}
	case FormatMemFunc:
		if i.Op == OpRPCC {
			return i.Ra
		}
	}
	return RegZero
}

// Sources returns the architected source registers of the instruction.
// R31 entries are omitted (reads of R31 are free). The result is at most
// three registers (a CMOV also reads its destination) appended to dst.
func (i *Inst) Sources(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegZero {
			dst = append(dst, r)
		}
	}
	switch i.Format {
	case FormatOperate:
		add(i.Ra)
		if !i.UseLit {
			add(i.Rb)
		}
		if i.IsCMOV() {
			add(i.Rc) // CMOV also reads its destination
		}
	case FormatMemory:
		add(i.Rb) // base
		if i.IsStore() {
			add(i.Ra) // store data
		}
	case FormatMemJump:
		add(i.Rb) // jump target
	case FormatBranch:
		if i.IsCondBranch() {
			add(i.Ra)
		}
	case FormatPAL:
		// The PAL surface reads v0/a0 but those are handled by the VM.
	}
	return dst
}

// MemBytes returns the access width in bytes of a load or store, or 0.
func (i *Inst) MemBytes() int {
	switch i.Op {
	case OpLDBU, OpSTB:
		return 1
	case OpLDWU, OpSTW:
		return 2
	case OpLDL, OpSTL, OpLDLL, OpSTLC:
		return 4
	case OpLDQ, OpSTQ, OpLDQU, OpSTQU, OpLDQL, OpSTQC:
		return 8
	}
	return 0
}
