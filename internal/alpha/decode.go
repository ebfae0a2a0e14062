package alpha

// Primary opcode values.
const (
	opcCallPAL = 0x00
	opcLDA     = 0x08
	opcLDAH    = 0x09
	opcLDBU    = 0x0A
	opcLDQU    = 0x0B
	opcLDWU    = 0x0C
	opcSTW     = 0x0D
	opcSTB     = 0x0E
	opcSTQU    = 0x0F
	opcINTA    = 0x10
	opcINTL    = 0x11
	opcINTS    = 0x12
	opcINTM    = 0x13
	opcMISC    = 0x18
	opcJSR     = 0x1A
	opcLDL     = 0x28
	opcLDQ     = 0x29
	opcLDLL    = 0x2A
	opcLDQL    = 0x2B
	opcSTL     = 0x2C
	opcSTQ     = 0x2D
	opcSTLC    = 0x2E
	opcSTQC    = 0x2F
	opcBR      = 0x30
	opcBSR     = 0x34
	opcBLBC    = 0x38
	opcBEQ     = 0x39
	opcBLT     = 0x3A
	opcBLE     = 0x3B
	opcBLBS    = 0x3C
	opcBNE     = 0x3D
	opcBGE     = 0x3E
	opcBGT     = 0x3F
)

// The decode tables below are indexed by opcode or function code.
// OpInvalid, the zero Op, marks an absent entry.

// memOps maps memory-format primary opcodes to operations.
var memOps = [64]Op{
	opcLDA: OpLDA, opcLDAH: OpLDAH,
	opcLDBU: OpLDBU, opcLDQU: OpLDQU, opcLDWU: OpLDWU,
	opcSTW: OpSTW, opcSTB: OpSTB, opcSTQU: OpSTQU,
	opcLDL: OpLDL, opcLDQ: OpLDQ, opcLDLL: OpLDLL, opcLDQL: OpLDQL,
	opcSTL: OpSTL, opcSTQ: OpSTQ, opcSTLC: OpSTLC, opcSTQC: OpSTQC,
}

// branchOps maps branch-format primary opcodes to operations.
var branchOps = [64]Op{
	opcBR: OpBR, opcBSR: OpBSR,
	opcBLBC: OpBLBC, opcBEQ: OpBEQ, opcBLT: OpBLT, opcBLE: OpBLE,
	opcBLBS: OpBLBS, opcBNE: OpBNE, opcBGE: OpBGE, opcBGT: OpBGT,
}

// operateTables holds the 7-bit function-code table of each operate
// opcode, INTA, INTL, INTS and INTM (0x10..0x13), at index opc-opcINTA.
var operateTables = [4][128]Op{
	opcINTA - opcINTA: {
		0x00: OpADDL, 0x02: OpS4ADDL, 0x12: OpS8ADDL,
		0x09: OpSUBL, 0x0B: OpS4SUBL, 0x1B: OpS8SUBL,
		0x20: OpADDQ, 0x22: OpS4ADDQ, 0x32: OpS8ADDQ,
		0x29: OpSUBQ, 0x2B: OpS4SUBQ, 0x3B: OpS8SUBQ,
		0x2D: OpCMPEQ, 0x4D: OpCMPLT, 0x6D: OpCMPLE,
		0x1D: OpCMPULT, 0x3D: OpCMPULE, 0x0F: OpCMPBGE,
	},
	opcINTL - opcINTA: {
		0x00: OpAND, 0x08: OpBIC, 0x20: OpBIS, 0x28: OpORNOT,
		0x40: OpXOR, 0x48: OpEQV,
		0x24: OpCMOVEQ, 0x26: OpCMOVNE, 0x44: OpCMOVLT, 0x46: OpCMOVGE,
		0x64: OpCMOVLE, 0x66: OpCMOVGT, 0x14: OpCMOVLBS, 0x16: OpCMOVLBC,
		0x61: OpAMASK, 0x6C: OpIMPLVER,
	},
	opcINTS - opcINTA: {
		0x39: OpSLL, 0x34: OpSRL, 0x3C: OpSRA,
		0x06: OpEXTBL, 0x16: OpEXTWL, 0x26: OpEXTLL, 0x36: OpEXTQL,
		0x5A: OpEXTWH, 0x6A: OpEXTLH, 0x7A: OpEXTQH,
		0x0B: OpINSBL, 0x1B: OpINSWL, 0x2B: OpINSLL, 0x3B: OpINSQL,
		0x57: OpINSWH, 0x67: OpINSLH, 0x77: OpINSQH,
		0x02: OpMSKBL, 0x12: OpMSKWL, 0x22: OpMSKLL, 0x32: OpMSKQL,
		0x52: OpMSKWH, 0x62: OpMSKLH, 0x72: OpMSKQH,
		0x30: OpZAP, 0x31: OpZAPNOT,
	},
	opcINTM - opcINTA: {
		0x00: OpMULL, 0x20: OpMULQ, 0x30: OpUMULH,
	},
}

// miscOps maps opcode 0x18 function codes (held in the displacement field).
var miscOps = map[uint32]Op{
	0x0000: OpTRAPB, 0x0400: OpEXCB,
	0x4000: OpMB, 0x4400: OpWMB, 0xC000: OpRPCC,
	0x8000: OpFETCH, 0xA000: OpFETCHM, 0xE800: OpECB, 0xF800: OpWH64,
}

// jump hint type values in disp[15:14] for opcode 0x1A.
var jumpOps = [4]Op{OpJMP, OpJSR, OpRET, OpJSRCoroutine}

// signExtend returns v sign-extended from the given bit width.
func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode decodes a raw 32-bit Alpha instruction word. It never fails:
// undefined encodings decode to OpInvalid and floating-point or other
// recognised-but-unimplemented opcodes decode to OpUnsupported.
func Decode(w Word) Inst {
	inst := Inst{Raw: w}
	opc := w.Opcode()
	ra := Reg((w >> 21) & 31)
	rb := Reg((w >> 16) & 31)

	switch {
	case opc == opcCallPAL:
		inst.Op = OpCallPAL
		inst.Format = FormatPAL
		inst.PALFn = uint32(w) & 0x03FFFFFF
		return inst

	case opc == opcMISC:
		fn := uint32(w) & 0xFFFF
		op, ok := miscOps[fn]
		if !ok {
			inst.Op = OpUnsupported
			inst.Format = FormatInvalid
			return inst
		}
		inst.Op = op
		inst.Format = FormatMemFunc
		inst.Ra, inst.Rb = ra, rb
		return inst

	case opc == opcJSR:
		inst.Format = FormatMemJump
		disp := uint32(w) & 0xFFFF
		inst.Op = jumpOps[(disp>>14)&3]
		inst.Ra, inst.Rb = ra, rb
		inst.Hint = uint16(disp & 0x3FFF)
		return inst

	case opc >= opcINTA && opc <= opcINTM:
		op := operateTables[opc-opcINTA][(w>>5)&0x7F]
		if op == OpInvalid {
			inst.Op = OpUnsupported
			inst.Format = FormatOperate
			return inst
		}
		inst.Op = op
		inst.Format = FormatOperate
		inst.Ra = ra
		inst.Rc = Reg(w & 31)
		if w&(1<<12) != 0 {
			inst.UseLit = true
			inst.Lit = uint8((w >> 13) & 0xFF)
		} else {
			inst.Rb = rb
		}
		return inst

	default:
		if op := memOps[opc]; op != OpInvalid {
			inst.Op = op
			inst.Format = FormatMemory
			inst.Ra, inst.Rb = ra, rb
			inst.Disp = signExtend(uint32(w)&0xFFFF, 16)
			return inst
		}
		if op := branchOps[opc]; op != OpInvalid {
			inst.Op = op
			inst.Format = FormatBranch
			inst.Ra = ra
			inst.Disp = signExtend(uint32(w)&0x1FFFFF, 21)
			return inst
		}
		// Floating point and everything else we know exists but do not
		// implement.
		switch opc {
		case 0x14, 0x15, 0x16, 0x17, 0x1C, // FP operate / ITFP / FPTI
			0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, // FP loads/stores
			0x31, 0x32, 0x33, 0x35, 0x36, 0x37, // FP branches
			0x19, 0x1B, 0x1D, 0x1E, 0x1F: // PAL-reserved (HW_*)
			inst.Op = OpUnsupported
		default:
			inst.Op = OpInvalid
		}
		inst.Format = FormatInvalid
		return inst
	}
}
