package alpha

import (
	"testing"
	"testing/quick"
)

func TestDecodeKnownEncodings(t *testing.T) {
	// Hand-checked encodings against the Alpha Architecture Handbook bit
	// layouts.
	tests := []struct {
		name string
		w    Word
		want Inst
	}{
		{
			// lda r16, 1(r16): opcode 0x08, ra=16, rb=16, disp=1
			name: "lda",
			w:    Word(0x08<<26 | 16<<21 | 16<<16 | 1),
			want: Inst{Op: OpLDA, Format: FormatMemory, Ra: 16, Rb: 16, Disp: 1},
		},
		{
			// ldbu r3, 0(r16)
			name: "ldbu",
			w:    Word(0x0A<<26 | 3<<21 | 16<<16),
			want: Inst{Op: OpLDBU, Format: FormatMemory, Ra: 3, Rb: 16},
		},
		{
			// stq r1, -8(r30)
			name: "stq-negdisp",
			w:    Word(0x2D<<26 | 1<<21 | 30<<16 | 0xFFF8),
			want: Inst{Op: OpSTQ, Format: FormatMemory, Ra: 1, Rb: 30, Disp: -8},
		},
		{
			// subl r17, 1, r17 (literal form): opcode 0x10 fn 0x09
			name: "subl-lit",
			w:    Word(0x10<<26 | 17<<21 | 1<<13 | 1<<12 | 0x09<<5 | 17),
			want: Inst{Op: OpSUBL, Format: FormatOperate, Ra: 17, Rc: 17, Lit: 1, UseLit: true},
		},
		{
			// xor r1, r3, r3 (register form): opcode 0x11 fn 0x40
			name: "xor-reg",
			w:    Word(0x11<<26 | 1<<21 | 3<<16 | 0x40<<5 | 3),
			want: Inst{Op: OpXOR, Format: FormatOperate, Ra: 1, Rb: 3, Rc: 3},
		},
		{
			// srl r1, 8, r1: opcode 0x12 fn 0x34 literal 8
			name: "srl-lit",
			w:    Word(0x12<<26 | 1<<21 | 8<<13 | 1<<12 | 0x34<<5 | 1),
			want: Inst{Op: OpSRL, Format: FormatOperate, Ra: 1, Rc: 1, Lit: 8, UseLit: true},
		},
		{
			// s8addq r3, r0, r3: opcode 0x10 fn 0x32
			name: "s8addq",
			w:    Word(0x10<<26 | 3<<21 | 0<<16 | 0x32<<5 | 3),
			want: Inst{Op: OpS8ADDQ, Format: FormatOperate, Ra: 3, Rb: 0, Rc: 3},
		},
		{
			// bne r17, -10 (backward branch)
			name: "bne-backward",
			w:    Word(0x3D<<26 | 17<<21 | (uint32(0xFFFFFFF6) & 0x1FFFFF)),
			want: Inst{Op: OpBNE, Format: FormatBranch, Ra: 17, Disp: -10},
		},
		{
			// br r31, +3
			name: "br",
			w:    Word(0x30<<26 | 31<<21 | 3),
			want: Inst{Op: OpBR, Format: FormatBranch, Ra: 31, Disp: 3},
		},
		{
			// ret r31, (r26): opcode 0x1A, hint type 2
			name: "ret",
			w:    Word(0x1A<<26 | 31<<21 | 26<<16 | 2<<14),
			want: Inst{Op: OpRET, Format: FormatMemJump, Ra: 31, Rb: 26},
		},
		{
			// jsr r26, (r27): hint type 1
			name: "jsr",
			w:    Word(0x1A<<26 | 26<<21 | 27<<16 | 1<<14),
			want: Inst{Op: OpJSR, Format: FormatMemJump, Ra: 26, Rb: 27},
		},
		{
			name: "call_pal-halt",
			w:    Word(0),
			want: Inst{Op: OpCallPAL, Format: FormatPAL, PALFn: PALHalt},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.w)
			tt.want.Raw = tt.w
			if got != tt.want {
				t.Errorf("Decode(%#x) = %+v, want %+v", uint32(tt.w), got, tt.want)
			}
		})
	}
}

func TestEncodeDecodeRoundTripMem(t *testing.T) {
	for _, op := range memOps {
		if op == OpInvalid {
			continue
		}
		w, err := EncodeMem(op, 5, 30, -256)
		if err != nil {
			t.Fatalf("EncodeMem(%v): %v", op, err)
		}
		got := Decode(w)
		if got.Op != op || got.Ra != 5 || got.Rb != 30 || got.Disp != -256 {
			t.Errorf("round trip %v: got %+v", op, got)
		}
	}
}

func TestEncodeDecodeRoundTripOperate(t *testing.T) {
	ops := []Op{OpADDQ, OpSUBQ, OpAND, OpBIS, OpXOR, OpSLL, OpSRL, OpSRA, OpMULQ,
		OpCMPEQ, OpCMPLT, OpCMPULE, OpCMOVEQ, OpZAPNOT, OpEXTBL, OpS8ADDQ, OpUMULH}
	for _, op := range ops {
		w, err := EncodeOperateR(op, 1, 2, 3)
		if err != nil {
			t.Fatalf("EncodeOperateR(%v): %v", op, err)
		}
		got := Decode(w)
		if got.Op != op || got.Ra != 1 || got.Rb != 2 || got.Rc != 3 || got.UseLit {
			t.Errorf("round trip reg %v: got %+v", op, got)
		}
		w, err = EncodeOperateL(op, 1, 200, 3)
		if err != nil {
			t.Fatalf("EncodeOperateL(%v): %v", op, err)
		}
		got = Decode(w)
		if got.Op != op || got.Ra != 1 || got.Lit != 200 || got.Rc != 3 || !got.UseLit {
			t.Errorf("round trip lit %v: got %+v", op, got)
		}
	}
}

func TestEncodeDecodeRoundTripBranch(t *testing.T) {
	ops := []Op{OpBR, OpBSR, OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE, OpBLBC, OpBLBS}
	for _, op := range ops {
		for _, disp := range []int32{0, 1, -1, 1000, -(1 << 20), (1 << 20) - 1} {
			w, err := EncodeBranch(op, 9, disp)
			if err != nil {
				t.Fatalf("EncodeBranch(%v, %d): %v", op, disp, err)
			}
			got := Decode(w)
			if got.Op != op || got.Ra != 9 || got.Disp != disp {
				t.Errorf("round trip %v disp=%d: got %+v", op, disp, got)
			}
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	if _, err := EncodeMem(OpLDQ, 0, 0, 40000); err == nil {
		t.Error("EncodeMem accepted out-of-range displacement")
	}
	if _, err := EncodeBranch(OpBR, 0, 1<<20); err == nil {
		t.Error("EncodeBranch accepted out-of-range displacement")
	}
	if _, err := EncodeMem(OpADDQ, 0, 0, 0); err == nil {
		t.Error("EncodeMem accepted operate op")
	}
	if _, err := EncodeOperateR(OpLDQ, 0, 0, 0); err == nil {
		t.Error("EncodeOperateR accepted memory op")
	}
}

// Property: every word either fails to decode (OpInvalid/OpUnsupported) or
// decodes into an instruction whose fields are within architectural ranges.
func TestDecodeTotalProperty(t *testing.T) {
	f := func(raw uint32) bool {
		inst := Decode(Word(raw))
		if inst.Op == OpInvalid || inst.Op == OpUnsupported {
			return true
		}
		if inst.Ra > 31 || inst.Rb > 31 || inst.Rc > 31 {
			return false
		}
		switch inst.Format {
		case FormatMemory:
			return inst.Disp >= -32768 && inst.Disp <= 32767
		case FormatBranch:
			return inst.Disp >= -(1<<20) && inst.Disp <= (1<<20)-1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: decode(encode(x)) == x for operate instructions over random
// fields.
func TestOperateRoundTripProperty(t *testing.T) {
	ops := []Op{OpADDL, OpADDQ, OpSUBQ, OpAND, OpBIS, OpXOR, OpSLL, OpSRA,
		OpCMPLT, OpCMOVNE, OpMULQ, OpZAP, OpEXTQL, OpMSKBL, OpINSLL}
	f := func(opIdx, ra, rb, rc uint8, lit uint8, useLit bool) bool {
		op := ops[int(opIdx)%len(ops)]
		a, b, c := Reg(ra%32), Reg(rb%32), Reg(rc%32)
		var w Word
		var err error
		if useLit {
			w, err = EncodeOperateL(op, a, lit, c)
		} else {
			w, err = EncodeOperateR(op, a, b, c)
		}
		if err != nil {
			return false
		}
		d := Decode(w)
		if d.Op != op || d.Ra != a || d.Rc != c || d.UseLit != useLit {
			return false
		}
		if useLit {
			return d.Lit == lit
		}
		return d.Rb == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPredicates(t *testing.T) {
	dec := func(w Word) Inst { return Decode(w) }
	mustEnc := func(w Word, err error) Word {
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ldq := dec(mustEnc(EncodeMem(OpLDQ, 1, 2, 0)))
	if !ldq.IsLoad() || ldq.IsStore() || !ldq.IsMem() || !ldq.MayTrap() {
		t.Errorf("ldq predicates wrong: %+v", ldq)
	}
	if ldq.Dest() != 1 {
		t.Errorf("ldq dest = %v, want r1", ldq.Dest())
	}
	if got := ldq.Sources(nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("ldq sources = %v", got)
	}
	stq := dec(mustEnc(EncodeMem(OpSTQ, 1, 2, 8)))
	if stq.IsLoad() || !stq.IsStore() {
		t.Errorf("stq predicates wrong")
	}
	if got := stq.Sources(nil); len(got) != 2 {
		t.Errorf("stq sources = %v, want [base data]", got)
	}
	if stq.Dest() != RegZero {
		t.Errorf("stq dest = %v, want zero", stq.Dest())
	}
	bne := dec(mustEnc(EncodeBranch(OpBNE, 17, -10)))
	if !bne.IsCondBranch() || !bne.IsBranch() || bne.IsIndirect() {
		t.Errorf("bne predicates wrong")
	}
	if got := bne.BranchTarget(0x1000); got != 0x1000+4-40 {
		t.Errorf("bne target = %#x", got)
	}
	bsr := dec(mustEnc(EncodeBranch(OpBSR, 26, 5)))
	if !bsr.IsCall() || !bsr.IsDirectJump() || bsr.Dest() != RegRA {
		t.Errorf("bsr predicates wrong")
	}
	ret := dec(mustEnc(EncodeJump(OpRET, 31, 26, 0)))
	if !ret.IsReturn() || !ret.IsIndirect() || ret.IsCall() {
		t.Errorf("ret predicates wrong")
	}
	jsr := dec(mustEnc(EncodeJump(OpJSR, 26, 27, 0)))
	if !jsr.IsCall() || jsr.Dest() != RegRA {
		t.Errorf("jsr predicates wrong")
	}
	cmov := dec(mustEnc(EncodeOperateR(OpCMOVEQ, 1, 2, 3)))
	if !cmov.IsCMOV() {
		t.Errorf("cmov predicate wrong")
	}
	if got := cmov.Sources(nil); len(got) != 3 {
		t.Errorf("cmov sources = %v, want 3 (reads dest)", got)
	}
	nop := dec(NOP())
	if !nop.IsNOP() {
		t.Errorf("canonical NOP not recognised")
	}
	// Writes to r31 are NOPs.
	addToZero := dec(mustEnc(EncodeOperateR(OpADDQ, 1, 2, RegZero)))
	if !addToZero.IsNOP() {
		t.Errorf("addq ..,..,zero should be a NOP")
	}
}

func TestMemBytes(t *testing.T) {
	cases := map[Op]int{
		OpLDBU: 1, OpSTB: 1, OpLDWU: 2, OpSTW: 2,
		OpLDL: 4, OpSTL: 4, OpLDQ: 8, OpSTQ: 8, OpLDQU: 8,
		OpADDQ: 0, OpBR: 0,
	}
	for op, want := range cases {
		i := Inst{Op: op}
		if got := i.MemBytes(); got != want {
			t.Errorf("MemBytes(%v) = %d, want %d", op, got, want)
		}
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{0: "v0", 1: "t0", 16: "a0", 26: "ra", 30: "sp", 31: "zero"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestDisassembleSmoke(t *testing.T) {
	cases := []struct {
		w    Word
		pc   uint64
		want string
	}{}
	w, _ := EncodeMem(OpLDQ, 1, 30, 16)
	cases = append(cases, struct {
		w    Word
		pc   uint64
		want string
	}{w, 0, "ldq t0, 16(sp)"})
	w, _ = EncodeOperateL(OpADDQ, 1, 8, 2)
	cases = append(cases, struct {
		w    Word
		pc   uint64
		want string
	}{w, 0, "addq t0, #8, t1"})
	w, _ = EncodeBranch(OpBNE, 17, -2)
	cases = append(cases, struct {
		w    Word
		pc   uint64
		want string
	}{w, 0x100, "bne a1, 0xfc"})
	w, _ = EncodeJump(OpRET, 31, 26, 0)
	cases = append(cases, struct {
		w    Word
		pc   uint64
		want string
	}{w, 0, "ret zero, (ra)"})
	for _, c := range cases {
		if got := DisassembleWord(c.w, c.pc); got != c.want {
			t.Errorf("Disassemble(%#x) = %q, want %q", uint32(c.w), got, c.want)
		}
	}
}

func TestOpByName(t *testing.T) {
	op, ok := OpByName("s8addq")
	if !ok || op != OpS8ADDQ {
		t.Errorf("OpByName(s8addq) = %v, %v", op, ok)
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
	if _, ok := OpByName("<invalid>"); ok {
		t.Error("OpByName accepted <invalid>")
	}
}
