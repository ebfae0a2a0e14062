package emu

import (
	"testing"
	"testing/quick"

	"github.com/ildp/accdbt/internal/alpha"
)

func TestEvalOpArithmetic(t *testing.T) {
	tests := []struct {
		op      alpha.Op
		a, b    uint64
		want    uint64
		comment string
	}{
		{alpha.OpADDQ, 1, 2, 3, ""},
		{alpha.OpADDQ, ^uint64(0), 1, 0, "wraparound"},
		{alpha.OpADDL, 0x7FFFFFFF, 1, 0xFFFFFFFF80000000, "32-bit overflow sign-extends"},
		{alpha.OpSUBQ, 5, 7, ^uint64(1), "-2"},
		{alpha.OpSUBL, 0, 1, ^uint64(0), "-1 sign-extended"},
		{alpha.OpS4ADDQ, 3, 10, 22, ""},
		{alpha.OpS8ADDQ, 3, 10, 34, ""},
		{alpha.OpS4SUBQ, 3, 10, 2, ""},
		{alpha.OpS8SUBL, 1, 4, 4, ""},
		{alpha.OpMULQ, 7, 6, 42, ""},
		{alpha.OpMULL, 1 << 20, 1 << 20, 0, "low 32 bits zero"},
		{alpha.OpUMULH, 1 << 63, 4, 2, "high word"},
		{alpha.OpCMPEQ, 4, 4, 1, ""},
		{alpha.OpCMPEQ, 4, 5, 0, ""},
		{alpha.OpCMPLT, ^uint64(0), 0, 1, "-1 < 0 signed"},
		{alpha.OpCMPULT, ^uint64(0), 0, 0, "max > 0 unsigned"},
		{alpha.OpCMPLE, 3, 3, 1, ""},
		{alpha.OpCMPULE, 4, 3, 0, ""},
	}
	for _, tt := range tests {
		if got := EvalOp(tt.op, tt.a, tt.b); got != tt.want {
			t.Errorf("EvalOp(%v, %#x, %#x) = %#x, want %#x (%s)",
				tt.op, tt.a, tt.b, got, tt.want, tt.comment)
		}
	}
}

func TestEvalOpLogicalShift(t *testing.T) {
	tests := []struct {
		op   alpha.Op
		a, b uint64
		want uint64
	}{
		{alpha.OpAND, 0xF0F0, 0xFF00, 0xF000},
		{alpha.OpBIC, 0xF0F0, 0xFF00, 0x00F0},
		{alpha.OpBIS, 0xF0F0, 0x0F0F, 0xFFFF},
		{alpha.OpORNOT, 0, 0, ^uint64(0)},
		{alpha.OpXOR, 0xFF, 0x0F, 0xF0},
		{alpha.OpEQV, 0xFF, 0xFF, ^uint64(0)},
		{alpha.OpSLL, 1, 63, 1 << 63},
		{alpha.OpSLL, 1, 64, 1}, // shift count mod 64
		{alpha.OpSRL, 1 << 63, 63, 1},
		{alpha.OpSRA, 1 << 63, 63, ^uint64(0)},
		{alpha.OpSRA, 4, 1, 2},
		{alpha.OpZAPNOT, 0x1122334455667788, 0x0F, 0x55667788},
		{alpha.OpZAP, 0x1122334455667788, 0x0F, 0x1122334400000000},
	}
	for _, tt := range tests {
		if got := EvalOp(tt.op, tt.a, tt.b); got != tt.want {
			t.Errorf("EvalOp(%v, %#x, %#x) = %#x, want %#x", tt.op, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEvalOpCMPBGE(t *testing.T) {
	// Classic strlen idiom: cmpbge zero, data -> bits set where bytes are 0.
	data := uint64(0x0041424300444546) // bytes: 46 45 44 00 43 42 41 00
	got := EvalOp(alpha.OpCMPBGE, 0, data)
	// byte i of zero (0) >= byte i of data iff data byte == 0: bytes 3 and 7.
	if got != 0x88 {
		t.Errorf("CMPBGE = %#x, want 0x88", got)
	}
}

func TestByteManipulation(t *testing.T) {
	v := uint64(0x8877665544332211)
	if got := EvalOp(alpha.OpEXTBL, v, 2); got != 0x33 {
		t.Errorf("EXTBL = %#x", got)
	}
	if got := EvalOp(alpha.OpEXTWL, v, 2); got != 0x4433 {
		t.Errorf("EXTWL = %#x", got)
	}
	if got := EvalOp(alpha.OpEXTLL, v, 4); got != 0x88776655 {
		t.Errorf("EXTLL = %#x", got)
	}
	if got := EvalOp(alpha.OpEXTQL, v, 0); got != v {
		t.Errorf("EXTQL bn=0 = %#x", got)
	}
	// EXTQH with bn=0 must return the value unchanged (mod-64 shift),
	// preserving the aligned-case unaligned-load idiom.
	if got := EvalOp(alpha.OpEXTQH, v, 0); got != v {
		t.Errorf("EXTQH bn=0 = %#x, want %#x", got, v)
	}
	if got := EvalOp(alpha.OpINSBL, 0xAB, 3); got != 0xAB000000 {
		t.Errorf("INSBL = %#x", got)
	}
	if got := EvalOp(alpha.OpMSKBL, v, 0); got != 0x8877665544332200 {
		t.Errorf("MSKBL = %#x", got)
	}
	if got := EvalOp(alpha.OpMSKQL, v, 0); got != 0 {
		t.Errorf("MSKQL bn=0 = %#x, want 0", got)
	}
}

// TestEvalOpManualVectors covers the operate ops no other vector
// reaches. Each expected value is worked by hand from the operation
// definition in the Alpha Architecture Reference Manual, not taken from
// EvalOp. In the byte ops, a is 0x8877665544332211 (byte i holds
// 0x11*(i+1)), bn is Rb<2:0>, and mask is the op's byte mask (0x03 for
// a word, 0x0F for a longword, 0xFF for a quadword) shifted left by bn:
// the L forms keep or clear the bytes in mask<7:0>, the H forms those
// in mask<15:8>. So at bn = 0 an H form touches no byte: INSxH gives 0
// and MSKxH gives Rav.
func TestEvalOpManualVectors(t *testing.T) {
	const a = 0x8877665544332211
	tests := []struct {
		op      alpha.Op
		a, b    uint64
		want    uint64
		comment string
	}{
		// Scaled longword arithmetic: SEXT((Ra*4 or *8 +/- Rb)<31:0>).
		{alpha.OpS4ADDL, 0x40000000, 1, 1, "4*Ra wraps out of the longword"},
		{alpha.OpS4ADDL, 0x20000000, 0, 0xFFFFFFFF80000000, "bit 31 sign-extends"},
		{alpha.OpS8ADDL, 3, 10, 34, ""},
		{alpha.OpS8ADDL, 0x10000000, 0x10, 0xFFFFFFFF80000010, "bit 31 sign-extends"},
		{alpha.OpS4SUBL, 1, 5, ^uint64(0), "4-5 = -1"},
		{alpha.OpS4SUBL, 0x100000003, 2, 10, "Ra's high bits drop out"},
		// S8SUBQ: Ra*8 - Rb over the quadword.
		{alpha.OpS8SUBQ, 1, 9, ^uint64(0), "8-9 = -1"},
		{alpha.OpS8SUBQ, 1 << 61, 0, 0, "8*Ra wraps"},
		// EXTxH: LEFT_SHIFT(Rav, (64-8*bn)<5:0>), then keep the low word
		// or longword.
		{alpha.OpEXTWH, a, 7, 0x1100, "shift 8"},
		{alpha.OpEXTWH, a, 15, 0x1100, "only Rb<2:0> counts"},
		{alpha.OpEXTWH, a, 6, 0, "shift 16 empties the word"},
		{alpha.OpEXTWH, a, 0, 0x2211, "shift (64)<5:0> = 0"},
		{alpha.OpEXTLH, a, 5, 0x11000000, "shift 24"},
		{alpha.OpEXTLH, a, 6, 0x22110000, "shift 16"},
		{alpha.OpEXTLH, a, 0, 0x44332211, "shift (64)<5:0> = 0"},
		// INSxL: LEFT_SHIFT(Rav, 8*bn), bytes outside mask<7:0> cleared.
		{alpha.OpINSWL, a, 0, 0x2211, ""},
		{alpha.OpINSWL, a, 3, 0x2211000000, ""},
		{alpha.OpINSWL, a, 7, 0x1100000000000000, "byte 1 falls off the quadword"},
		{alpha.OpINSLL, a, 2, 0x443322110000, ""},
		{alpha.OpINSLL, a, 6, 0x2211000000000000, "bytes 2 and 3 fall off"},
		// INSxH: RIGHT_SHIFT(Rav, 64-8*bn), bytes outside mask<15:8>
		// cleared; 0 when bn = 0.
		{alpha.OpINSWH, a, 7, 0x22, "mask 0x180: byte 1 lands in byte 0"},
		{alpha.OpINSWH, a, 6, 0, "mask 0xC0 has no high byte"},
		{alpha.OpINSWH, a, 0, 0, "bn = 0"},
		{alpha.OpINSLH, a, 5, 0x44, "mask 0x1E0: byte 3 lands in byte 0"},
		{alpha.OpINSLH, a, 7, 0x443322, "mask 0x780"},
		{alpha.OpINSLH, a, 0, 0, "bn = 0"},
		{alpha.OpINSQH, a, 3, 0x887766, "mask 0x7F8"},
		{alpha.OpINSQH, a, 0, 0, "bn = 0"},
		// MSKxL: BYTE_ZAP(Rav, mask<7:0>).
		{alpha.OpMSKWL, a, 0, 0x8877665544330000, "bytes 0-1"},
		{alpha.OpMSKWL, a, 7, 0x0077665544332211, "byte 7 only"},
		{alpha.OpMSKLL, a, 2, 0x8877000000002211, "bytes 2-5"},
		{alpha.OpMSKLL, a, 6, 0x0000665544332211, "bytes 6-7 only"},
		// MSKxH: BYTE_ZAP(Rav, mask<15:8>).
		{alpha.OpMSKWH, a, 7, 0x8877665544332200, "mask 0x180: byte 0"},
		{alpha.OpMSKWH, a, 3, a, "mask 0x18 has no high byte"},
		{alpha.OpMSKWH, a, 0, a, "bn = 0"},
		{alpha.OpMSKLH, a, 6, 0x8877665544330000, "mask 0x3C0: bytes 0-1"},
		{alpha.OpMSKLH, a, 0, a, "bn = 0"},
		{alpha.OpMSKQH, a, 1, 0x8877665544332200, "mask 0x1FE: byte 0"},
		{alpha.OpMSKQH, a, 0, a, "bn = 0"},
		// AMASK: Rbv AND NOT the implemented-feature mask; this model
		// implements BWX, FIX, CIX and MVI (bits 0, 1, 2 and 8).
		{alpha.OpAMASK, a, 0x1FF, 0xF8, "Ra is ignored"},
		{alpha.OpAMASK, 0, 0, 0, ""},
		// IMPLVER: 2 names the EV6 family.
		{alpha.OpIMPLVER, a, a, 2, ""},
		// LDA: Rbv + SEXT(disp), the displacement arriving as b.
		{alpha.OpLDA, 0x1000, ^uint64(7), 0xFF8, "displacement -8"},
		{alpha.OpLDA, ^uint64(0), 1, 0, "wraps"},
	}
	for _, tt := range tests {
		if got := EvalOp(tt.op, tt.a, tt.b); got != tt.want {
			t.Errorf("EvalOp(%v, %#x, %#x) = %#x, want %#x (%s)",
				tt.op, tt.a, tt.b, got, tt.want, tt.comment)
		}
	}
}

// Property: the unaligned-store idiom (mskql/insql + mskqh/insqh applied to
// the same quad when the address is aligned) reproduces a plain store.
func TestUnalignedStoreIdiomProperty(t *testing.T) {
	f := func(memLo, val uint64, bnRaw uint8) bool {
		bn := uint64(bnRaw & 7)
		if bn != 0 {
			return true // only the aligned case collapses to one quad
		}
		lo := EvalOp(alpha.OpMSKQL, memLo, bn) | EvalOp(alpha.OpINSQL, val, bn)
		hi := EvalOp(alpha.OpMSKQH, lo, bn) | EvalOp(alpha.OpINSQH, val, bn)
		return hi == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EXTQL/EXTQH reassembly of an unaligned quadword recovers the
// original bytes for every byte offset.
func TestUnalignedLoadIdiomProperty(t *testing.T) {
	f := func(lo, hi uint64, bnRaw uint8) bool {
		bn := uint64(bnRaw & 7)
		// Bytes of the conceptual 16-byte buffer [lo, hi] starting at bn.
		var want uint64
		for i := uint64(0); i < 8; i++ {
			pos := bn + i
			var b byte
			if pos < 8 {
				b = byte(lo >> (8 * pos))
			} else {
				b = byte(hi >> (8 * (pos - 8)))
			}
			want |= uint64(b) << (8 * i)
		}
		var got uint64
		if bn == 0 {
			// Aligned: both ldq_u hit the same quad (lo).
			got = EvalOp(alpha.OpEXTQL, lo, bn) | EvalOp(alpha.OpEXTQH, lo, bn)
		} else {
			got = EvalOp(alpha.OpEXTQL, lo, bn) | EvalOp(alpha.OpEXTQH, hi, bn)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEvalCond(t *testing.T) {
	tests := []struct {
		op   alpha.Op
		v    uint64
		want bool
	}{
		{alpha.OpBEQ, 0, true}, {alpha.OpBEQ, 1, false},
		{alpha.OpBNE, 0, false}, {alpha.OpBNE, 5, true},
		{alpha.OpBLT, ^uint64(0), true}, {alpha.OpBLT, 0, false},
		{alpha.OpBGE, 0, true}, {alpha.OpBGE, ^uint64(0), false},
		{alpha.OpBLE, 0, true}, {alpha.OpBLE, 1, false},
		{alpha.OpBGT, 1, true}, {alpha.OpBGT, 0, false},
		{alpha.OpBLBC, 2, true}, {alpha.OpBLBC, 3, false},
		{alpha.OpBLBS, 3, true}, {alpha.OpBLBS, 2, false},
		{alpha.OpCMOVEQ, 0, true}, {alpha.OpCMOVGT, 7, true},
		{alpha.OpCMOVNE, 0, false}, {alpha.OpCMOVNE, 1 << 63, true},
		{alpha.OpCMOVLT, 1 << 63, true}, {alpha.OpCMOVLT, 0, false},
		{alpha.OpCMOVGE, 0, true}, {alpha.OpCMOVGE, 1 << 63, false},
		{alpha.OpCMOVLE, ^uint64(0), true}, {alpha.OpCMOVLE, 1, false},
		{alpha.OpCMOVLBC, 2, true}, {alpha.OpCMOVLBC, 1, false},
		{alpha.OpCMOVLBS, ^uint64(0), true}, {alpha.OpCMOVLBS, 0x10, false},
	}
	for _, tt := range tests {
		if got := EvalCond(tt.op, tt.v); got != tt.want {
			t.Errorf("EvalCond(%v, %#x) = %v, want %v", tt.op, tt.v, got, tt.want)
		}
	}
}

// Property: comparison results are always 0 or 1.
func TestCompareBooleanProperty(t *testing.T) {
	ops := []alpha.Op{alpha.OpCMPEQ, alpha.OpCMPLT, alpha.OpCMPLE, alpha.OpCMPULT, alpha.OpCMPULE}
	f := func(a, b uint64, i uint8) bool {
		v := EvalOp(ops[int(i)%len(ops)], a, b)
		return v == 0 || v == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsALUOp(t *testing.T) {
	if !IsALUOp(alpha.OpADDQ) || !IsALUOp(alpha.OpZAPNOT) || !IsALUOp(alpha.OpUMULH) {
		t.Error("ALU ops not recognised")
	}
	if IsALUOp(alpha.OpLDQ) || IsALUOp(alpha.OpBNE) || IsALUOp(alpha.OpCMOVEQ) || IsALUOp(alpha.OpJMP) {
		t.Error("non-ALU ops recognised as ALU")
	}
}
