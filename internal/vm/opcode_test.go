package vm

import (
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// inlinedOps are the ALU ops the executor runs without emu.EvalOp, with
// their opcodes.
var inlinedOps = map[alpha.Op]uint8{
	alpha.OpLDA: xAdd, alpha.OpADDQ: xAdd, alpha.OpSUBQ: xSub,
	alpha.OpAND: xAnd, alpha.OpXOR: xXor, alpha.OpBIS: xBis,
	alpha.OpSRL: xSrl, alpha.OpSLL: xSll, alpha.OpS8ADDQ: xS8Add,
}

// TestExecOpTable checks that every I-ISA kind has an executable
// opcode, that each patch pair shares one, and that exactly the inlined
// ALU ops leave the emu.EvalOp fallback.
func TestExecOpTable(t *testing.T) {
	op := func(k ildp.Kind) uint8 { return execOp(&ildp.Inst{Kind: k, Op: alpha.OpADDL}) }
	if got := op(ildp.KindInvalid); got != xInvalid {
		t.Errorf("invalid kind: opcode %d, want xInvalid", got)
	}
	if got := op(ildp.KindDispatchOp + 1); got != xInvalid {
		t.Errorf("kind past the last: opcode %d, want xInvalid", got)
	}
	for k := ildp.KindInvalid + 1; k <= ildp.KindDispatchOp; k++ {
		if op(k) == xInvalid {
			t.Errorf("kind %v has no executable opcode", k)
		}
	}
	for _, pair := range [][2]ildp.Kind{
		{ildp.KindCallTrans, ildp.KindBranch},
		{ildp.KindCallTransCond, ildp.KindCondBranch},
	} {
		if op(pair[0]) != op(pair[1]) {
			t.Errorf("patch pair %v/%v: opcodes %d and %d differ", pair[0], pair[1], op(pair[0]), op(pair[1]))
		}
	}
	alu := 0
	for o := alpha.Op(0); o < 1<<10; o++ {
		if !emu.IsALUOp(o) {
			continue
		}
		alu++
		want, ok := inlinedOps[o]
		if !ok {
			want = xALU
		}
		if got := execOp(&ildp.Inst{Kind: ildp.KindALU, Op: o}); got != want {
			t.Errorf("ALU op %v: opcode %d, want %d", o, got, want)
		}
	}
	if alu <= len(inlinedOps) {
		t.Fatalf("found %d ALU ops, fewer than the inlined ones", alu)
	}
}

// TestOutOfRangeRegisterRefused checks that an instruction naming a
// register past the I-ISA's 64 stops the run with an error instead of
// reaching another register-file slot.
func TestOutOfRangeRegisterRefused(t *testing.T) {
	for _, inst := range []ildp.Inst{
		aluInst(alpha.OpADDQ, ildp.GPRSrc(ildp.NumGPR), ildp.ImmSrc(1)),
		aluInst(alpha.OpADDQ, ildp.AccSrc(), ildp.GPRSrc(ildp.NumGPR+8)),
		{Kind: ildp.KindCopyToGPR, Acc: 0, Dest: ildp.NumGPR + 1, Frag: ildp.NoFrag},
	} {
		v := New(mem.New(), DefaultConfig())
		f := installBody(t, v, 0x1000, inst)
		if _, err := v.execTranslated(f); err == nil {
			t.Errorf("%v %v, %v -> r%d ran", inst.Kind, inst.SrcA, inst.SrcB, inst.Dest)
		}
	}
}

// installBody installs body as a fragment at vstart of v, between a
// set-vpc prologue and a call-translator exit to 0x8000.
func installBody(t *testing.T, v *VM, vstart uint64, body ...ildp.Inst) *tcache.Fragment {
	t.Helper()
	none := ildp.Inst{Acc: ildp.NoAcc, Dest: alpha.RegZero, Frag: ildp.NoFrag}
	vpc, exit := none, none
	vpc.Kind, vpc.VAddr = ildp.KindSetVPC, vstart
	exit.Kind, exit.VAddr = ildp.KindCallTrans, 0x8000
	insts := append(append([]ildp.Inst{vpc}, body...), exit)
	f, err := v.tc.Install(&translate.Result{VStart: vstart, Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// aluInst is an ALU instruction writing accumulator 0 and scratch
// register ScratchBase.
func aluInst(op alpha.Op, a, b ildp.Src) ildp.Inst {
	return ildp.Inst{Kind: ildp.KindALU, Op: op, Acc: 0, WritesAcc: true,
		SrcA: a, SrcB: b, Dest: ildp.ScratchBase, Frag: ildp.NoFrag}
}

// runOnce executes f from its first instruction and checks that it
// leaves through its call-translator exit.
func runOnce(t *testing.T, v *VM, f *tcache.Fragment) {
	t.Helper()
	exitV, err := v.execTranslated(f)
	if err != nil || exitV != 0x8000 {
		t.Fatalf("execTranslated = %#x, %v; want the exit at 0x8000", exitV, err)
	}
}

// TestInlinedALUMatchesEvalOp runs each inlined ALU op over edge
// operands (shift counts of 64 and more, sign bits, 32-bit wrap) from
// accumulator, GPR, immediate and r31 sources into a scratch register,
// and checks the result against emu.EvalOp.
func TestInlinedALUMatchesEvalOp(t *testing.T) {
	edges := []uint64{0, 1, 3, 63, 64, 65, 127, 128, 0xFF,
		0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x100000000,
		1<<63 - 1, 1 << 63, ^uint64(0), 0xDEADBEEFCAFEF00D}
	const ra, rb = alpha.Reg(5), alpha.Reg(6)
	type source struct {
		name string
		src  func(val uint64) ildp.Src
		// set loads val into the source; it returns the value the source
		// reads.
		set func(v *VM, val uint64) uint64
	}
	acc := source{"acc", func(uint64) ildp.Src { return ildp.AccSrc() },
		func(v *VM, val uint64) uint64 { v.rf[accSlot(0)] = val; return val }}
	gpr := func(r alpha.Reg) source {
		return source{"gpr", func(uint64) ildp.Src { return ildp.GPRSrc(r) },
			func(v *VM, val uint64) uint64 { v.cpu.WriteReg(r, val); return val }}
	}
	imm := source{"imm", func(val uint64) ildp.Src { return ildp.ImmSrc(int64(val)) },
		func(_ *VM, val uint64) uint64 { return val }}
	zero := source{"r31", func(uint64) ildp.Src { return ildp.GPRSrc(alpha.RegZero) },
		func(*VM, uint64) uint64 { return 0 }}

	v := New(mem.New(), DefaultConfig())
	vstart := uint64(0x10000)
	for op, want := range inlinedOps {
		for _, sa := range []source{acc, gpr(ra), imm, zero} {
			for _, sb := range []source{acc, gpr(rb), imm, zero} {
				f := installBody(t, v, vstart, aluInst(op, sa.src(0), sb.src(0)))
				vstart += 0x100
				runOnce(t, v, f)
				if got := f.Ops[1].Code; got != want {
					t.Fatalf("%v: opcode %d, want %d", op, got, want)
				}
				for _, a := range edges {
					for _, b := range edges {
						if sa.name == "acc" && sb.name == "acc" && a != b {
							continue // both read the one accumulator
						}
						inst := &f.Insts[1]
						inst.SrcA, inst.SrcB = sa.src(a), sb.src(b)
						f.Ops = nil // the edit changes the resolved operands
						x, y := sa.set(v, a), sb.set(v, b)
						v.rf[ildp.ScratchBase] = 0x5A5A
						runOnce(t, v, f)
						want := emu.EvalOp(op, x, y)
						if got := v.rf[ildp.ScratchBase]; got != want {
							t.Fatalf("%v %s=%#x %s=%#x: scratch %#x, EvalOp %#x",
								op, sa.name, x, sb.name, y, got, want)
						}
						if got := v.rf[accSlot(0)]; got != want {
							t.Fatalf("%v %s=%#x %s=%#x: accumulator %#x, EvalOp %#x",
								op, sa.name, x, sb.name, y, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBitFlipRebuildsOpcodes has the entry check's fault injector flip
// the op of an inlined ALU instruction in a fragment that has already
// run, with Paranoid off so the corrupted code runs. The next entry
// must execute the flipped op, not the opcode built for the original.
func TestBitFlipRebuildsOpcodes(t *testing.T) {
	const a, b = 0x0123456789ABCDEF, 0x0F0F0F0F0F0F0F0F
	for seed := uint64(1); seed < 2000; seed++ {
		v := New(mem.New(), DefaultConfig())
		f := installBody(t, v, 0x1000,
			aluInst(alpha.OpADDQ, ildp.GPRSrc(1), ildp.GPRSrc(2)))
		v.cpu.WriteReg(1, a)
		v.cpu.WriteReg(2, b)
		runOnce(t, v, f)
		if got := v.rf[ildp.ScratchBase]; f.Ops == nil || got != a+b {
			t.Fatalf("first run: opcodes %v, scratch %#x, want %#x", f.Ops, got, uint64(a+b))
		}
		v.inj = faultinject.New(faultinject.Config{Seed: seed, EntryRate: 1,
			Kinds: []faultinject.Kind{faultinject.KindBitFlip}})
		if !v.admit(f) {
			t.Fatalf("seed %d: entry refused without Paranoid", seed)
		}
		flipped := f.Insts[1].Op
		if flipped == alpha.OpADDQ || !emu.IsALUOp(flipped) || emu.EvalOp(flipped, a, b) == a+b {
			continue // the flip hit another field, or an op that shows nothing
		}
		runOnce(t, v, f)
		if got, want := v.rf[ildp.ScratchBase], emu.EvalOp(flipped, a, b); got != want {
			t.Fatalf("seed %d: addq flipped to %v computed %#x, want %#x", seed, flipped, got, want)
		}
		return
	}
	t.Fatal("no seed flipped the addq into an ALU op with a different result")
}

// TestSemanticsPanicClosesVisit is the sibling of
// TestSemanticsPanicSurfacedAtRun for the visit's counters: an
// out-of-domain op in the middle of a fragment must surface as an
// *emu.SemanticsError with the visit closed, and Stats must count the
// instructions before it but not the faulting one.
func TestSemanticsPanicClosesVisit(t *testing.T) {
	v := New(mem.New(), DefaultConfig())
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	f := installBody(t, v, v.cpu.PC,
		aluInst(alpha.OpADDQ, ildp.GPRSrc(1), ildp.ImmSrc(1)),
		aluInst(alpha.OpCallPAL, ildp.GPRSrc(1), ildp.ImmSrc(1)),
		aluInst(alpha.OpSUBQ, ildp.GPRSrc(1), ildp.ImmSrc(1)))
	err := v.Run(0)
	var se *emu.SemanticsError
	if !errors.As(err, &se) || se.Func != "EvalOp" {
		t.Fatalf("Run = %v, want an EvalOp *emu.SemanticsError", err)
	}
	if v.visit != nil {
		t.Fatal("the visit is still open after the panic")
	}
	if want := uint64(f.Tally(2).IInsts); v.Stats.TransIInsts != want || v.Stats.FragEntries != 1 {
		t.Errorf("TransIInsts = %d in %d entries, want %d in 1: the set-vpc and the addq, not the faulting op",
			v.Stats.TransIInsts, v.Stats.FragEntries, want)
	}
}
