package alpha

import "fmt"

// encInfo records how to encode one operation.
type encInfo struct {
	opcode uint32
	fn     uint32 // function code for operate/misc formats
	format Format
}

var encTable = map[Op]encInfo{}

func init() {
	for opc, op := range memOps {
		if op != OpInvalid {
			encTable[op] = encInfo{opcode: uint32(opc), format: FormatMemory}
		}
	}
	for opc, op := range branchOps {
		if op != OpInvalid {
			encTable[op] = encInfo{opcode: uint32(opc), format: FormatBranch}
		}
	}
	for i, table := range operateTables {
		for fn, op := range table {
			if op != OpInvalid {
				encTable[op] = encInfo{opcode: opcINTA + uint32(i), fn: uint32(fn), format: FormatOperate}
			}
		}
	}
	for fn, op := range miscOps {
		encTable[op] = encInfo{opcode: opcMISC, fn: fn, format: FormatMemFunc}
	}
	for i, op := range jumpOps {
		encTable[op] = encInfo{opcode: opcJSR, fn: uint32(i), format: FormatMemJump}
	}
	encTable[OpCallPAL] = encInfo{opcode: opcCallPAL, format: FormatPAL}
}

// EncodeMem encodes a memory-format instruction (loads, stores, LDA/LDAH).
// The displacement must fit in 16 signed bits.
func EncodeMem(op Op, ra, rb Reg, disp int32) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatMemory {
		return 0, fmt.Errorf("alpha: %v is not a memory-format op", op)
	}
	if disp < -32768 || disp > 32767 {
		return 0, fmt.Errorf("alpha: displacement %d out of 16-bit range for %v", disp, op)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(rb)<<16 | uint32(uint16(disp))), nil
}

// EncodeBranch encodes a branch-format instruction. disp is in instruction
// words (target = pc + 4 + 4*disp) and must fit in 21 signed bits.
func EncodeBranch(op Op, ra Reg, disp int32) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatBranch {
		return 0, fmt.Errorf("alpha: %v is not a branch-format op", op)
	}
	if disp < -(1<<20) || disp > (1<<20)-1 {
		return 0, fmt.Errorf("alpha: branch displacement %d out of 21-bit range", disp)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(disp)&0x1FFFFF), nil
}

// EncodeOperateR encodes a register-form operate instruction rc = ra op rb.
func EncodeOperateR(op Op, ra, rb, rc Reg) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatOperate {
		return 0, fmt.Errorf("alpha: %v is not an operate-format op", op)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(rb)<<16 | info.fn<<5 | uint32(rc)), nil
}

// EncodeOperateL encodes a literal-form operate instruction rc = ra op #lit.
func EncodeOperateL(op Op, ra Reg, lit uint8, rc Reg) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatOperate {
		return 0, fmt.Errorf("alpha: %v is not an operate-format op", op)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(lit)<<13 | 1<<12 | info.fn<<5 | uint32(rc)), nil
}

// EncodeJump encodes a register-indirect jump (JMP/JSR/RET/JSR_COROUTINE).
// hint is the 14-bit branch-prediction hint field.
func EncodeJump(op Op, ra, rb Reg, hint uint16) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatMemJump {
		return 0, fmt.Errorf("alpha: %v is not a jump-format op", op)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(rb)<<16 | info.fn<<14 | uint32(hint)&0x3FFF), nil
}

// EncodePAL encodes a CALL_PAL instruction with the given function code.
func EncodePAL(fn uint32) (Word, error) {
	if fn > 0x03FFFFFF {
		return 0, fmt.Errorf("alpha: PAL function %#x out of range", fn)
	}
	return Word(uint32(opcCallPAL)<<26 | fn), nil
}

// EncodeMisc encodes an opcode-0x18 miscellaneous instruction (MB, TRAPB,
// RPCC, ...). ra is used only by RPCC.
func EncodeMisc(op Op, ra Reg) (Word, error) {
	info, ok := encTable[op]
	if !ok || info.format != FormatMemFunc {
		return 0, fmt.Errorf("alpha: %v is not a misc-format op", op)
	}
	return Word(info.opcode<<26 | uint32(ra)<<21 | uint32(RegZero)<<16 | info.fn), nil
}

// Encode re-encodes a decoded instruction into its canonical word,
// dispatching on the operation's format. Encode(Decode(w)) is the
// canonical spelling of w: it may differ from w in must-be-zero bits
// (operate-format SBZ bits, the misc-format Rb field), but always decodes
// to the same instruction and re-encodes to itself.
func Encode(inst Inst) (Word, error) {
	info, ok := encTable[inst.Op]
	if !ok {
		return 0, fmt.Errorf("alpha: %v has no encoding", inst.Op)
	}
	switch info.format {
	case FormatMemory:
		return EncodeMem(inst.Op, inst.Ra, inst.Rb, inst.Disp)
	case FormatBranch:
		return EncodeBranch(inst.Op, inst.Ra, inst.Disp)
	case FormatOperate:
		if inst.UseLit {
			return EncodeOperateL(inst.Op, inst.Ra, inst.Lit, inst.Rc)
		}
		return EncodeOperateR(inst.Op, inst.Ra, inst.Rb, inst.Rc)
	case FormatMemJump:
		return EncodeJump(inst.Op, inst.Ra, inst.Rb, inst.Hint)
	case FormatMemFunc:
		return EncodeMisc(inst.Op, inst.Ra)
	case FormatPAL:
		return EncodePAL(inst.PALFn)
	}
	return 0, fmt.Errorf("alpha: %v has no encodable format", inst.Op)
}

// NOP returns the canonical Alpha no-op encoding (bis zero,zero,zero).
func NOP() Word {
	w, err := EncodeOperateR(OpBIS, RegZero, RegZero, RegZero)
	if err != nil {
		panic(err)
	}
	return w
}
