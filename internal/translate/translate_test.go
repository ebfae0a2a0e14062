package translate

import (
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/ildp"
)

// sbFromAsm assembles src, decodes the instructions in program order
// starting at start, and builds a superblock. takens marks which
// conditional branches (in order of appearance) were taken during
// collection.
func sbFromAsm(t *testing.T, src string, start uint64, end EndKind, nextPC uint64, takens ...bool) *Superblock {
	t.Helper()
	prog := alphaasm.MustAssemble(src)
	var seg []byte
	var segAddr uint64
	for _, s := range prog.Segments {
		if s.Addr <= start && start < s.Addr+uint64(len(s.Data)) {
			seg, segAddr = s.Data, s.Addr
		}
	}
	if seg == nil {
		t.Fatalf("start %#x not in any segment", start)
	}
	sb := &Superblock{StartPC: start, End: end, NextPC: nextPC}
	brIdx := 0
	for off := start - segAddr; off+4 <= uint64(len(seg)); off += 4 {
		w := alpha.Word(uint32(seg[off]) | uint32(seg[off+1])<<8 |
			uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24)
		inst := alpha.Decode(w)
		rec := SBInst{PC: segAddr + off, Inst: inst}
		if inst.IsCondBranch() {
			if brIdx < len(takens) {
				rec.Taken = takens[brIdx]
			}
			brIdx++
		}
		if inst.IsIndirect() {
			rec.PredTarget = 0x77000 // arbitrary prediction for tests
		}
		sb.Insts = append(sb.Insts, rec)
		if inst.IsIndirect() || inst.Op == alpha.OpCallPAL {
			break
		}
		if inst.IsCondBranch() && end == EndBackward && segAddr+off+4-start >= 0 &&
			int(off+4-(start-segAddr))/4 == countInsts(seg, start-segAddr) {
			break
		}
	}
	return sb
}

func countInsts(seg []byte, startOff uint64) int {
	return (len(seg) - int(startOff)) / 4
}

// fig2Src is the paper's Fig. 2 example from 164.gzip.
const fig2Src = `
	.text 0x12000
L1:
	ldbu   t2, 0(a0)
	subl   a1, #1, a1
	lda    a0, 1(a0)
	xor    t0, t2, t2
	srl    t0, #8, t0
	and    t2, #255, t2
	s8addq t2, v0, t2
	ldq    t2, 0(t2)
	xor    t2, t0, t0
	bne    a1, L1
`

func fig2SB(t *testing.T) *Superblock {
	t.Helper()
	return sbFromAsm(t, fig2Src, 0x12000, EndBackward, 0x12000+10*4, true)
}

func mustTranslate(t *testing.T, sb *Superblock, cfg Config) *Result {
	t.Helper()
	res, err := Translate(sb, cfg)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	for i := range res.Insts {
		if err := res.Insts[i].Validate(cfg.Form); err != nil {
			t.Fatalf("inst %d %q invalid: %v", i, res.Insts[i].String(), err)
		}
	}
	return res
}

func TestFig2Modified(t *testing.T) {
	res := mustTranslate(t, fig2SB(t), Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})

	if res.SrcCount != 10 {
		t.Errorf("SrcCount = %d, want 10", res.SrcCount)
	}
	if res.CopyCount != 0 {
		t.Errorf("modified ISA emitted %d copies, want 0", res.CopyCount)
	}
	// set-vpc + 9 translated + cond branch + trailing branch = 12.
	if len(res.Insts) != 12 {
		for i := range res.Insts {
			t.Logf("%2d: %s", i, res.Insts[i].String())
		}
		t.Fatalf("got %d instructions, want 12", len(res.Insts))
	}

	wantKinds := []ildp.Kind{
		ildp.KindSetVPC,
		ildp.KindLoad,          // R3 (A0) <- mem[R16]
		ildp.KindALU,           // R17(A1) <- R17 - 1
		ildp.KindALU,           // R16(A2) <- R16 + 1
		ildp.KindALU,           // R3 (A0) <- R1 xor A0
		ildp.KindALU,           // R1 (A3) <- R1 << 8
		ildp.KindALU,           // R3 (A0) <- A0 and 0xff
		ildp.KindALU,           // R3 (A0) <- 8*A0 + R0
		ildp.KindLoad,          // R3 (A0) <- mem[A0]
		ildp.KindALU,           // R1 (A3) <- R3 xor A3
		ildp.KindCallTransCond, // P <- L1 if A1 != 0
		ildp.KindCallTrans,     // P <- L2
	}
	for i, k := range wantKinds {
		if res.Insts[i].Kind != k {
			t.Errorf("inst %d kind = %v, want %v (%s)", i, res.Insts[i].Kind, k, res.Insts[i].String())
		}
	}

	// Accumulator assignments must follow the paper's A0..A3 pattern.
	wantAcc := map[int]ildp.AccID{1: 0, 2: 1, 3: 2, 4: 0, 5: 3, 6: 0, 7: 0, 8: 0, 9: 3, 10: 1}
	for i, a := range wantAcc {
		if res.Insts[i].Acc != a {
			t.Errorf("inst %d (%s) acc = A%d, want A%d", i, res.Insts[i].String(), res.Insts[i].Acc, a)
		}
	}

	// Every producing instruction carries its architected destination.
	wantDest := map[int]alpha.Reg{1: 3, 2: 17, 3: 16, 4: 3, 5: 1, 6: 3, 7: 3, 8: 3, 9: 1}
	for i, d := range wantDest {
		if res.Insts[i].Dest != d {
			t.Errorf("inst %d dest = %v, want r%d", i, res.Insts[i].Dest, d)
		}
	}

	// The final xor must chain the srl strand (A3) and read R3 as a GPR:
	// the ldq result is live-out (global anyway), so the pure local wins.
	xor := res.Insts[9]
	if xor.SrcB.Kind != ildp.SrcAcc && xor.SrcA.Kind != ildp.SrcAcc {
		t.Error("final xor does not chain an accumulator")
	}
	if g := xor.GPR(); g != 3 {
		t.Errorf("final xor GPR = r%d, want r3", g)
	}

	// The loop branch tests A1 and targets the loop head.
	br := res.Insts[10]
	if br.Op != alpha.OpBNE || br.SrcA.Kind != ildp.SrcAcc || br.VAddr != 0x12000 {
		t.Errorf("loop branch wrong: %s", br.String())
	}

	// PEI table: ldbu, ldq, bne.
	if len(res.PEI) != 3 {
		t.Errorf("PEI table = %v, want 3 entries", res.PEI)
	}

	// V-credit conservation: every source instruction retires exactly once.
	credit := 0
	for i := range res.Insts {
		credit += int(res.Insts[i].VCredit)
	}
	if credit != res.SrcCount {
		t.Errorf("total VCredit = %d, want %d", credit, res.SrcCount)
	}
}

func TestFig2Basic(t *testing.T) {
	res := mustTranslate(t, fig2SB(t), Config{Form: ildp.Basic, NumAcc: 4, Chain: SWPredRAS})

	// Fig. 2c: exactly four copy-to-GPR instructions (R17<-A1, R16<-A2,
	// R3<-A0 after the ldq, R1<-A3 after the final xor).
	if res.CopyCount != 4 {
		for i := range res.Insts {
			t.Logf("%2d: %s", i, res.Insts[i].String())
		}
		t.Fatalf("CopyCount = %d, want 4", res.CopyCount)
	}
	if len(res.Insts) != 16 {
		t.Errorf("got %d instructions, want 16 (12 + 4 copies)", len(res.Insts))
	}
	// No instruction carries a destination GPR except copies and specials.
	for i := range res.Insts {
		inst := &res.Insts[i]
		if inst.Kind == ildp.KindALU || inst.Kind == ildp.KindLoad {
			if inst.Dest != alpha.RegZero {
				t.Errorf("basic-form %s carries dest", inst.String())
			}
		}
	}
	// The copies must target r17, r16, r3, r1 in that order.
	var copies []alpha.Reg
	for i := range res.Insts {
		if res.Insts[i].Kind == ildp.KindCopyToGPR {
			copies = append(copies, res.Insts[i].Dest)
		}
	}
	want := []alpha.Reg{17, 16, 3, 1}
	if len(copies) != len(want) {
		t.Fatalf("copies = %v", copies)
	}
	for i := range want {
		if copies[i] != want[i] {
			t.Errorf("copy %d targets r%d, want r%d", i, copies[i], want[i])
		}
	}
}

func TestDynamicExpansionBasicVsModified(t *testing.T) {
	sb := fig2SB(t)
	basic := mustTranslate(t, sb, Config{Form: ildp.Basic, NumAcc: 4, Chain: SWPredRAS})
	mod := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	if len(basic.Insts) <= len(mod.Insts) {
		t.Errorf("basic (%d) should expand more than modified (%d)",
			len(basic.Insts), len(mod.Insts))
	}
	// Static code bytes: modified uses wider instructions but fewer of
	// them; both should expand less than their instruction-count ratio.
	if basic.CodeBytes <= 0 || mod.CodeBytes <= 0 {
		t.Fatal("code bytes not computed")
	}
}

func TestTwoGlobalInputsGetCopyFrom(t *testing.T) {
	sb := sbFromAsm(t, `
	.text 0x1000
	addq a0, a1, v0
	ret
`, 0x1000, EndIndirect, 0)
	res := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	var sawCopyFrom bool
	for i := range res.Insts {
		if res.Insts[i].Kind == ildp.KindCopyFromGPR && res.Insts[i].Class == ildp.ClassCopy {
			sawCopyFrom = true
		}
	}
	if !sawCopyFrom {
		for i := range res.Insts {
			t.Logf("%2d: %s", i, res.Insts[i].String())
		}
		t.Error("two-global-input addq did not get a copy-from-GPR")
	}
}

func TestStoreDecomposition(t *testing.T) {
	// Non-zero displacement: address node + store node.
	sb := sbFromAsm(t, `
	.text 0x1000
	stq a1, 8(a0)
	ret
`, 0x1000, EndIndirect, 0)
	res := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	var addr, store bool
	for i := range res.Insts {
		switch res.Insts[i].Kind {
		case ildp.KindALU:
			if res.Insts[i].Class == ildp.ClassAddr {
				addr = true
			}
		case ildp.KindStore:
			store = true
			if res.Insts[i].SrcA.Kind != ildp.SrcAcc {
				t.Errorf("store address should come from the accumulator: %s", res.Insts[i].String())
			}
		}
	}
	if !addr || !store {
		t.Errorf("missing decomposition: addr=%v store=%v", addr, store)
	}

	// Zero displacement: single store, no address node.
	sb0 := sbFromAsm(t, `
	.text 0x1000
	stq a1, 0(a0)
	ret
`, 0x1000, EndIndirect, 0)
	res0 := mustTranslate(t, sb0, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	for i := range res0.Insts {
		if res0.Insts[i].Class == ildp.ClassAddr {
			t.Error("zero-displacement store emitted an address node")
		}
	}
}

func TestCMOVDecomposition(t *testing.T) {
	sb := sbFromAsm(t, `
	.text 0x1000
	cmoveq a0, a1, v0
	ret
`, 0x1000, EndIndirect, 0)
	res := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	var test, sel bool
	for i := range res.Insts {
		inst := &res.Insts[i]
		if inst.Kind == ildp.KindALU && inst.Usage == ildp.UsageTemp {
			test = true
		}
		if inst.Kind == ildp.KindCMOV {
			sel = true
			if inst.Dest != 0 {
				t.Errorf("cmov dest = r%d, want r0", inst.Dest)
			}
		}
	}
	if !test || !sel {
		t.Errorf("cmov decomposition missing: test=%v sel=%v", test, sel)
	}
}

func TestBranchReversal(t *testing.T) {
	// A taken mid-trace branch must be reversed so the hot path falls
	// through; the exit targets the original fall-through.
	sb := &Superblock{StartPC: 0x1000, End: EndMaxSize, NextPC: 0x1010}
	enc := func(w alpha.Word, err error) alpha.Word {
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	beq := alpha.Decode(enc(alpha.EncodeBranch(alpha.OpBEQ, 1, 10)))
	add := alpha.Decode(enc(alpha.EncodeOperateL(alpha.OpADDQ, 1, 1, 1)))
	sb.Insts = []SBInst{
		{PC: 0x1000, Inst: beq, Taken: true},
		// collection continued at the taken target
		{PC: 0x1000 + 4 + 40, Inst: add},
	}
	res := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	var br *ildp.Inst
	for i := range res.Insts {
		if res.Insts[i].Kind == ildp.KindCallTransCond {
			br = &res.Insts[i]
		}
	}
	if br == nil {
		t.Fatal("no conditional exit emitted")
	}
	if br.Op != alpha.OpBNE {
		t.Errorf("condition not reversed: %v", br.Op)
	}
	if br.VAddr != 0x1004 {
		t.Errorf("exit target = %#x, want fall-through 0x1004", br.VAddr)
	}
}

func TestChainingModes(t *testing.T) {
	src := `
	.text 0x1000
	addq a0, #1, v0
	ret
`
	count := func(res *Result, k ildp.Kind) int {
		n := 0
		for i := range res.Insts {
			if res.Insts[i].Kind == k {
				n++
			}
		}
		return n
	}

	sb := sbFromAsm(t, src, 0x1000, EndIndirect, 0)
	noPred := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: NoPred})
	swPred := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPred})
	swRAS := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})

	if count(noPred, ildp.KindLoadETA) != 0 || count(noPred, ildp.KindJumpRet) != 0 {
		t.Error("no_pred emitted prediction code")
	}
	if count(swPred, ildp.KindLoadETA) != 1 || count(swPred, ildp.KindJumpRet) != 0 {
		t.Error("sw_pred should use compare-and-branch for returns")
	}
	if count(swRAS, ildp.KindJumpRet) != 1 || count(swRAS, ildp.KindLoadETA) != 0 {
		t.Error("sw_pred.ras should use the dual-address RAS for returns")
	}
	// RAS returns are cheaper than compare-and-branch returns.
	if len(swRAS.Insts) >= len(swPred.Insts) {
		t.Errorf("RAS return (%d insts) not cheaper than sw_pred (%d)",
			len(swRAS.Insts), len(swPred.Insts))
	}

	// JSR must push the dual RAS in RAS mode only.
	jsrSrc := `
	.text 0x1000
	addq a0, #1, v0
	jsr (pv)
`
	sbJSR := sbFromAsm(t, jsrSrc, 0x1000, EndIndirect, 0)
	rasJSR := mustTranslate(t, sbJSR, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	plainJSR := mustTranslate(t, sbJSR, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPred})
	if count(rasJSR, ildp.KindPushRAS) != 1 {
		t.Error("RAS-mode JSR did not push the dual RAS")
	}
	if count(plainJSR, ildp.KindPushRAS) != 0 {
		t.Error("non-RAS JSR pushed the dual RAS")
	}
	if count(rasJSR, ildp.KindSaveVRA) != 1 {
		t.Error("JSR did not save the V-ISA return address")
	}
	// JSR is not a return: even in RAS mode it uses compare-and-branch.
	if count(rasJSR, ildp.KindLoadETA) != 1 {
		t.Error("RAS-mode JSR should still use software prediction")
	}
}

func TestAccumulatorExhaustionSpills(t *testing.T) {
	// Eight interleaved long-lived strands: defs first, uses later, all
	// local (each def used exactly once, no exits between).
	src := `
	.text 0x1000
	addq a0, #1, t0
	addq a0, #2, t1
	addq a0, #3, t2
	addq a0, #4, t3
	addq a0, #5, t4
	addq a0, #6, t5
	addq a0, #7, t6
	addq a0, #8, t7
	addq t0, #1, s0
	addq t1, #1, s1
	addq t2, #1, s2
	addq t3, #1, s3
	addq t4, #1, s4
	addq t5, #1, s5
	addq t6, #1, a2
	addq t7, #1, a3
	ret
`
	sb := sbFromAsm(t, src, 0x1000, EndIndirect, 0)
	four := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	eight := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 8, Chain: SWPredRAS})
	if four.SpillCount == 0 {
		t.Error("4 accumulators over 8 live strands should spill")
	}
	if eight.SpillCount != 0 {
		t.Errorf("8 accumulators spilled %d times, want 0", eight.SpillCount)
	}
	// All instructions must still be valid and within the accumulator file.
	for i := range four.Insts {
		inst := &four.Insts[i]
		if inst.Acc != ildp.NoAcc && inst.Acc >= 4 {
			t.Errorf("inst %d uses A%d with only 4 accumulators", i, inst.Acc)
		}
	}
}

func TestNOPsRemoved(t *testing.T) {
	sb := sbFromAsm(t, `
	.text 0x1000
	nop
	addq a0, #1, v0
	nop
	unop
	ret
`, 0x1000, EndIndirect, 0)
	res := mustTranslate(t, sb, Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	if res.NOPCount != 3 {
		t.Errorf("NOPCount = %d, want 3", res.NOPCount)
	}
	if res.SrcCount != 2 {
		t.Errorf("SrcCount = %d, want 2 (addq + ret)", res.SrcCount)
	}
}

func TestTranslationCostOrderOfMagnitude(t *testing.T) {
	res := mustTranslate(t, fig2SB(t), DefaultConfig())
	per := float64(res.Cost) / float64(res.SrcCount)
	// §4.2: around a thousand Alpha instructions per translated
	// instruction; well below the 4000+ of VLIW-targeting DBTs.
	if per < 300 || per > 3000 {
		t.Errorf("cost per source instruction = %.0f, want O(1000)", per)
	}
}

func TestUsageClassification(t *testing.T) {
	res := mustTranslate(t, fig2SB(t), Config{Form: ildp.Modified, NumAcc: 4, Chain: SWPredRAS})
	u := res.Usage
	// Fig 2: r17, r16, ldq-r3, final-xor-r1 are live-out; ldbu/xor/and/
	// s8addq/srl defs are local.
	if u[ildp.UsageLiveOut] != 4 {
		t.Errorf("live-out = %d, want 4 (usage=%v)", u[ildp.UsageLiveOut], u)
	}
	if u[ildp.UsageLocal] != 5 {
		t.Errorf("local = %d, want 5 (usage=%v)", u[ildp.UsageLocal], u)
	}
}

func TestEmptySuperblock(t *testing.T) {
	if _, err := Translate(&Superblock{}, DefaultConfig()); err == nil {
		t.Error("empty superblock accepted")
	}
	onlyNops := sbFromAsm(t, "\t.text 0x1000\n\tnop\n\tret\n", 0x1000, EndIndirect, 0)
	onlyNops.Insts = onlyNops.Insts[:1] // keep just the nop
	if _, err := Translate(onlyNops, DefaultConfig()); err == nil {
		t.Error("all-NOP superblock accepted")
	}
}

// TestNoUserDefBeforePEIGetsGPRHome pins exposure rule 4 (found by
// FuzzSemCheck): a def with no users keeps its value only in an
// accumulator, and that accumulator is freed at strand end — so if a
// PEI precedes the register's redefinition, the value must be copied
// to its GPR or a trap at the PEI cannot recover precise state.
func TestNoUserDefBeforePEIGetsGPRHome(t *testing.T) {
	// r17's def has no users, the ldq is a PEI inside its window, and
	// the final lda redefines r17 (so it is not live-out either).
	src := `
        .org 0x1000
        ldah r17, 0x3030(r16)
        ldq  r1, 0(r16)
        lda  r17, 8(r16)
`
	sb := sbFromAsm(t, src, 0x1000, EndMaxSize, 0x100c)
	res := mustTranslate(t, sb, Config{Form: ildp.Basic, NumAcc: 4, Chain: NoPred})
	if got := res.Usage[ildp.UsageNoUserGlobal]; got != 1 {
		t.Fatalf("no-user->global defs = %d, want 1 (usage=%v)", got, res.Usage)
	}
	// The copy must land before the PEI: at the load, r17 is current in
	// the register file, so its recovery pairs stay empty.
	sawCopy := false
	for _, inst := range res.Insts {
		if inst.Kind == ildp.KindLoad {
			if !sawCopy {
				t.Fatal("no copy-to-GPR for the no-user def before the PEI")
			}
			break
		}
		if inst.Kind == ildp.KindCopyToGPR && inst.Dest == 17 {
			sawCopy = true
		}
	}
	for i, pairs := range res.PEIRecover {
		for _, p := range pairs {
			if p.Reg == 17 {
				t.Errorf("PEI %d still expects r17 in accumulator %d", i, p.Acc)
			}
		}
	}
}

func TestParseChainMode(t *testing.T) {
	for _, m := range []ChainMode{NoPred, SWPred, SWPredRAS} {
		got, err := ParseChainMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseChainMode(%q) = %v, %v; want %v", m, got, err, m)
		}
	}
	_, err := ParseChainMode("sw_pred")
	if err == nil || !strings.Contains(err.Error(), "no_pred, sw_pred.no_ras, sw_pred.ras") {
		t.Errorf("unknown chaining mode: err = %v, want the valid names listed", err)
	}
}
