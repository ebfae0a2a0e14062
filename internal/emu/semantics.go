// Package emu implements a functional (instruction-accurate, not timed)
// interpreter for the Alpha integer subset. The interpreter is used by the
// co-designed VM for the interpret/profile stage, and its operate/branch
// semantic helpers are shared with the translated-code (I-ISA) executor so
// both execution modes agree bit-for-bit.
package emu

import (
	"math/bits"

	"github.com/ildp/accdbt/internal/alpha"
)

func sext32(v uint64) uint64 { return uint64(int64(int32(v))) }

// EV6FeatureMask is the AMASK architecture-extension mask this model
// reports: BWX (1), FIX (2), CIX (4), and MVI (0x100).
const EV6FeatureMask = 0x107

// highShift implements the Alpha EXT/INS/MSK "high" shift amount
// (64 - 8*bn) mod 64.
func highShift(bn uint64) uint { return uint((64 - 8*(bn&7)) & 63) }

// insHigh and mskHigh compute INSxH and MSKxH for a field of the given
// zero-extended value or mask placed at byte offset b&7. The field's
// bytes past the quadword land in the high one. At offset 0 none do, so
// INSxH inserts nothing and MSKxH clears nothing.
func insHigh(field, b uint64) uint64 {
	if b&7 == 0 {
		return 0
	}
	return field >> highShift(b)
}

func mskHigh(a, field, b uint64) uint64 {
	if b&7 == 0 {
		return a
	}
	return a &^ (field >> highShift(b))
}

func byteMask(zapBits uint64) uint64 {
	var m uint64
	for i := uint(0); i < 8; i++ {
		if zapBits&(1<<i) != 0 {
			m |= 0xFF << (8 * i)
		}
	}
	return m
}

// EvalOp computes the result of an operate-format operation on operand
// values a (Ra) and b (Rb or the zero-extended literal). For conditional
// moves use EvalCond plus the caller's select; EvalOp must not be called
// with CMOV operations.
func EvalOp(op alpha.Op, a, b uint64) uint64 {
	switch op {
	case alpha.OpADDL:
		return sext32(a + b)
	case alpha.OpS4ADDL:
		return sext32(a<<2 + b)
	case alpha.OpS8ADDL:
		return sext32(a<<3 + b)
	case alpha.OpSUBL:
		return sext32(a - b)
	case alpha.OpS4SUBL:
		return sext32(a<<2 - b)
	case alpha.OpS8SUBL:
		return sext32(a<<3 - b)
	case alpha.OpADDQ:
		return a + b
	case alpha.OpS4ADDQ:
		return a<<2 + b
	case alpha.OpS8ADDQ:
		return a<<3 + b
	case alpha.OpSUBQ:
		return a - b
	case alpha.OpS4SUBQ:
		return a<<2 - b
	case alpha.OpS8SUBQ:
		return a<<3 - b
	case alpha.OpCMPEQ:
		if a == b {
			return 1
		}
		return 0
	case alpha.OpCMPLT:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case alpha.OpCMPLE:
		if int64(a) <= int64(b) {
			return 1
		}
		return 0
	case alpha.OpCMPULT:
		if a < b {
			return 1
		}
		return 0
	case alpha.OpCMPULE:
		if a <= b {
			return 1
		}
		return 0
	case alpha.OpCMPBGE:
		var r uint64
		for i := uint(0); i < 8; i++ {
			if byte(a>>(8*i)) >= byte(b>>(8*i)) {
				r |= 1 << i
			}
		}
		return r
	case alpha.OpAND:
		return a & b
	case alpha.OpBIC:
		return a &^ b
	case alpha.OpBIS:
		return a | b
	case alpha.OpORNOT:
		return a | ^b
	case alpha.OpXOR:
		return a ^ b
	case alpha.OpEQV:
		return a ^ ^b
	case alpha.OpSLL:
		return a << (b & 63)
	case alpha.OpSRL:
		return a >> (b & 63)
	case alpha.OpSRA:
		return uint64(int64(a) >> (b & 63))
	case alpha.OpEXTBL:
		return (a >> (8 * (b & 7))) & 0xFF
	case alpha.OpEXTWL:
		return (a >> (8 * (b & 7))) & 0xFFFF
	case alpha.OpEXTLL:
		return (a >> (8 * (b & 7))) & 0xFFFFFFFF
	case alpha.OpEXTQL:
		return a >> (8 * (b & 7))
	case alpha.OpEXTWH:
		return (a << highShift(b)) & 0xFFFF
	case alpha.OpEXTLH:
		return (a << highShift(b)) & 0xFFFFFFFF
	case alpha.OpEXTQH:
		return a << highShift(b)
	case alpha.OpINSBL:
		return (a & 0xFF) << (8 * (b & 7))
	case alpha.OpINSWL:
		return (a & 0xFFFF) << (8 * (b & 7))
	case alpha.OpINSLL:
		return (a & 0xFFFFFFFF) << (8 * (b & 7))
	case alpha.OpINSQL:
		return a << (8 * (b & 7))
	case alpha.OpINSWH:
		return insHigh(a&0xFFFF, b)
	case alpha.OpINSLH:
		return insHigh(a&0xFFFFFFFF, b)
	case alpha.OpINSQH:
		return insHigh(a, b)
	case alpha.OpMSKBL:
		return a &^ (0xFF << (8 * (b & 7)))
	case alpha.OpMSKWL:
		return a &^ (0xFFFF << (8 * (b & 7)))
	case alpha.OpMSKLL:
		return a &^ (0xFFFFFFFF << (8 * (b & 7)))
	case alpha.OpMSKQL:
		return a &^ (^uint64(0) << (8 * (b & 7)))
	case alpha.OpMSKWH:
		return mskHigh(a, 0xFFFF, b)
	case alpha.OpMSKLH:
		return mskHigh(a, 0xFFFFFFFF, b)
	case alpha.OpMSKQH:
		return mskHigh(a, ^uint64(0), b)
	case alpha.OpZAP:
		return a &^ byteMask(b)
	case alpha.OpZAPNOT:
		return a & byteMask(b)
	case alpha.OpMULL:
		return sext32(a * b)
	case alpha.OpMULQ:
		return a * b
	case alpha.OpUMULH:
		hi, _ := bits.Mul64(a, b)
		return hi
	case alpha.OpAMASK:
		// EV6 implements BWX|FIX|CIX|MVI (bits 0,1,2,8): those bits of the
		// operand are cleared, telling software the features exist.
		return b &^ EV6FeatureMask
	case alpha.OpIMPLVER:
		// 2 = EV6 family.
		return 2
	case alpha.OpLDA:
		// Exposed so the translator can model address computation as an ALU
		// op: lda -> addq-like.
		return a + b
	}
	panic(&SemanticsError{Func: "EvalOp", Op: op})
}

// EvalCond evaluates the branch/CMOV condition of op against value v (the
// Ra operand of a branch, or the Ra operand of a conditional move).
func EvalCond(op alpha.Op, v uint64) bool {
	switch op {
	case alpha.OpBEQ, alpha.OpCMOVEQ:
		return v == 0
	case alpha.OpBNE, alpha.OpCMOVNE:
		return v != 0
	case alpha.OpBLT, alpha.OpCMOVLT:
		return int64(v) < 0
	case alpha.OpBGE, alpha.OpCMOVGE:
		return int64(v) >= 0
	case alpha.OpBLE, alpha.OpCMOVLE:
		return int64(v) <= 0
	case alpha.OpBGT, alpha.OpCMOVGT:
		return int64(v) > 0
	case alpha.OpBLBC, alpha.OpCMOVLBC:
		return v&1 == 0
	case alpha.OpBLBS, alpha.OpCMOVLBS:
		return v&1 == 1
	}
	panic(&SemanticsError{Func: "EvalCond", Op: op})
}

// IsALUOp reports whether op is handled by EvalOp.
func IsALUOp(op alpha.Op) bool {
	switch op {
	case alpha.OpADDL, alpha.OpS4ADDL, alpha.OpS8ADDL, alpha.OpSUBL,
		alpha.OpS4SUBL, alpha.OpS8SUBL, alpha.OpADDQ, alpha.OpS4ADDQ,
		alpha.OpS8ADDQ, alpha.OpSUBQ, alpha.OpS4SUBQ, alpha.OpS8SUBQ,
		alpha.OpCMPEQ, alpha.OpCMPLT, alpha.OpCMPLE, alpha.OpCMPULT,
		alpha.OpCMPULE, alpha.OpCMPBGE, alpha.OpAND, alpha.OpBIC,
		alpha.OpBIS, alpha.OpORNOT, alpha.OpXOR, alpha.OpEQV,
		alpha.OpSLL, alpha.OpSRL, alpha.OpSRA,
		alpha.OpEXTBL, alpha.OpEXTWL, alpha.OpEXTLL, alpha.OpEXTQL,
		alpha.OpEXTWH, alpha.OpEXTLH, alpha.OpEXTQH,
		alpha.OpINSBL, alpha.OpINSWL, alpha.OpINSLL, alpha.OpINSQL,
		alpha.OpINSWH, alpha.OpINSLH, alpha.OpINSQH,
		alpha.OpMSKBL, alpha.OpMSKWL, alpha.OpMSKLL, alpha.OpMSKQL,
		alpha.OpMSKWH, alpha.OpMSKLH, alpha.OpMSKQH,
		alpha.OpZAP, alpha.OpZAPNOT, alpha.OpMULL, alpha.OpMULQ, alpha.OpUMULH,
		alpha.OpAMASK, alpha.OpIMPLVER:
		return true
	}
	return false
}
