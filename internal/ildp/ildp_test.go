package ildp

import (
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
)

func TestValidateRejectsTwoGPRs(t *testing.T) {
	i := Inst{
		Kind: KindALU, Op: alpha.OpADDQ, Acc: 0, WritesAcc: true,
		SrcA: GPRSrc(1), SrcB: GPRSrc(2),
	}
	if err := i.Validate(Basic); err == nil {
		t.Error("two-GPR instruction validated")
	}
}

func TestValidateRejectsTwoAccs(t *testing.T) {
	i := Inst{
		Kind: KindALU, Op: alpha.OpADDQ, Acc: 0, WritesAcc: true,
		SrcA: AccSrc(), SrcB: AccSrc(),
	}
	if err := i.Validate(Basic); err == nil {
		t.Error("two-accumulator instruction validated")
	}
	// The CMOV select is the documented exception.
	cmov := Inst{
		Kind: KindCMOV, Op: alpha.OpCMOVEQ, Acc: 0, WritesAcc: true,
		SrcA: AccSrc(), SrcB: AccSrc(), Dest: alpha.RegZero,
	}
	if err := cmov.Validate(Basic); err != nil {
		t.Errorf("CMOV exception rejected: %v", err)
	}
}

func TestValidateAccPresence(t *testing.T) {
	i := Inst{Kind: KindALU, Op: alpha.OpADDQ, Acc: NoAcc, WritesAcc: true}
	if err := i.Validate(Basic); err == nil {
		t.Error("acc-writing instruction without accumulator validated")
	}
	j := Inst{Kind: KindALU, Op: alpha.OpADDQ, Acc: NoAcc, SrcA: AccSrc()}
	if err := j.Validate(Basic); err == nil {
		t.Error("acc-reading instruction without accumulator validated")
	}
}

func TestValidateBasicFormNoDest(t *testing.T) {
	i := Inst{
		Kind: KindALU, Op: alpha.OpADDQ, Acc: 1, WritesAcc: true,
		SrcA: GPRSrc(3), SrcB: ImmSrc(1), Dest: 5,
	}
	if err := i.Validate(Basic); err == nil {
		t.Error("basic-form ALU with dest GPR validated")
	}
	if err := i.Validate(Modified); err != nil {
		t.Errorf("modified-form ALU with dest GPR rejected: %v", err)
	}
}

func TestEncodedSizes(t *testing.T) {
	regALU := Inst{Kind: KindALU, Op: alpha.OpXOR, Acc: 0, WritesAcc: true,
		SrcA: AccSrc(), SrcB: GPRSrc(1), Dest: alpha.RegZero}
	immALU := Inst{Kind: KindALU, Op: alpha.OpSUBQ, Acc: 1, WritesAcc: true,
		SrcA: GPRSrc(17), SrcB: ImmSrc(1), Dest: alpha.RegZero}
	load := Inst{Kind: KindLoad, Op: alpha.OpLDQ, Acc: 0, WritesAcc: true, SrcA: AccSrc(), Dest: alpha.RegZero}
	branch := Inst{Kind: KindCondBranch, Op: alpha.OpBNE, SrcA: AccSrc(), Acc: 1}
	setvpc := Inst{Kind: KindSetVPC, VAddr: 0x10000}

	if got := regALU.EncodedSize(Basic); got != 2 {
		t.Errorf("reg ALU basic = %d, want 2", got)
	}
	if got := immALU.EncodedSize(Basic); got != 4 {
		t.Errorf("imm ALU basic = %d, want 4", got)
	}
	if got := load.EncodedSize(Basic); got != 2 {
		t.Errorf("load basic = %d, want 2", got)
	}
	if got := branch.EncodedSize(Basic); got != 4 {
		t.Errorf("branch basic = %d, want 4", got)
	}
	if got := setvpc.EncodedSize(Basic); got != 8 {
		t.Errorf("setvpc basic = %d, want 8", got)
	}

	// Modified form: a 16-bit result-producing instruction with a dest GPR
	// grows to 32 bits.
	regALUMod := regALU
	regALUMod.Dest = 3
	if got := regALUMod.EncodedSize(Modified); got != 4 {
		t.Errorf("reg ALU modified+dest = %d, want 4", got)
	}
	// Without a dest (dead value) it stays 16-bit.
	if got := regALU.EncodedSize(Modified); got != 2 {
		t.Errorf("reg ALU modified no-dest = %d, want 2", got)
	}
	// A store produces no result; same size in both forms.
	store := Inst{Kind: KindStore, Op: alpha.OpSTQ, SrcA: AccSrc(), Acc: 0, SrcB: GPRSrc(4)}
	if store.EncodedSize(Basic) != store.EncodedSize(Modified) {
		t.Error("store size differs between forms")
	}
}

func TestReadsAccAndGPR(t *testing.T) {
	i := Inst{Kind: KindALU, Op: alpha.OpXOR, Acc: 0, WritesAcc: true,
		SrcA: AccSrc(), SrcB: GPRSrc(1)}
	if !i.ReadsAcc() {
		t.Error("ReadsAcc false for acc source")
	}
	if i.GPR() != 1 {
		t.Errorf("GPR() = %v, want r1", i.GPR())
	}
	cp := Inst{Kind: KindCopyToGPR, Acc: 2, Dest: 17}
	if !cp.ReadsAcc() {
		t.Error("copy-to-GPR must read its accumulator")
	}
	start := Inst{Kind: KindCopyFromGPR, Acc: 1, WritesAcc: true, SrcA: GPRSrc(9)}
	if start.ReadsAcc() {
		t.Error("copy-from-GPR must not read its accumulator")
	}
}

func TestControlPredicates(t *testing.T) {
	br := Inst{Kind: KindCondBranch, Op: alpha.OpBNE, Acc: 0, SrcA: AccSrc(), Frag: NoFrag}
	if !br.IsControl() || !br.IsExit() {
		t.Error("unlinked cond branch should be control+exit")
	}
	br.Frag = 7
	if br.IsExit() {
		t.Error("linked cond branch should not be an exit")
	}
	alu := Inst{Kind: KindALU, Op: alpha.OpADDQ, Acc: 0, WritesAcc: true, SrcA: AccSrc(), SrcB: ImmSrc(1)}
	if alu.IsControl() || alu.IsExit() {
		t.Error("ALU is not control")
	}
	ct := Inst{Kind: KindCallTrans, VAddr: 0x100}
	if !ct.IsControl() || !ct.IsExit() {
		t.Error("call-translator should be control+exit")
	}
}

func TestStringNotation(t *testing.T) {
	// The paper's Fig. 2 example row: R3 (A0) <- mem[R16].
	i := Inst{Kind: KindLoad, Op: alpha.OpLDBU, Acc: 0, WritesAcc: true,
		SrcA: GPRSrc(16), Dest: 3}
	if got := i.String(); got != "R3 (A0) <- mem[R16]" {
		t.Errorf("String() = %q", got)
	}
	// Basic form equivalent has no dest.
	i.Dest = alpha.RegZero
	if got := i.String(); got != "A0 <- mem[R16]" {
		t.Errorf("String() = %q", got)
	}
	alu := Inst{Kind: KindALU, Op: alpha.OpXOR, Acc: 0, WritesAcc: true,
		SrcA: AccSrc(), SrcB: GPRSrc(1), Dest: alpha.RegZero}
	if got := alu.String(); got != "A0 <- A0 xor R1" {
		t.Errorf("String() = %q", got)
	}
	if s := (&Inst{Kind: KindSetVPC, VAddr: 0x1234}).String(); !strings.Contains(s, "0x1234") {
		t.Errorf("setvpc String() = %q", s)
	}
}

func TestProducesResult(t *testing.T) {
	yes := []Kind{KindALU, KindCMOV, KindLoad, KindCopyFromGPR, KindSaveVRA, KindLoadETA}
	no := []Kind{KindStore, KindCondBranch, KindBranch, KindCallTrans, KindSetVPC, KindPushRAS, KindCopyToGPR}
	for _, k := range yes {
		if !(&Inst{Kind: k}).ProducesResult() {
			t.Errorf("%v should produce a result", k)
		}
	}
	for _, k := range no {
		if (&Inst{Kind: k}).ProducesResult() {
			t.Errorf("%v should not produce a result", k)
		}
	}
}

func TestParseForm(t *testing.T) {
	for _, f := range []Form{Basic, Modified} {
		got, err := ParseForm(f.String())
		if err != nil || got != f {
			t.Errorf("ParseForm(%q) = %v, %v; want %v", f, got, err, f)
		}
	}
	_, err := ParseForm("straighten")
	if err == nil || !strings.Contains(err.Error(), "basic, modified") {
		t.Errorf("unknown form: err = %v, want the valid names listed", err)
	}
}
