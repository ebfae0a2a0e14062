package vm

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
)

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
		func(v *VM, val uint64) uint64 { v.rf[tcache.AccSlot(0)] = val; return val }}
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
	for op := alpha.Op(0); op < 1<<10; op++ {
		want := tcache.ExecOp(&ildp.Inst{Kind: ildp.KindALU, Op: op})
		if !emu.IsALUOp(op) || want == tcache.XALU {
			continue // not an inlined ALU op
		}
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
						if got := v.rf[tcache.AccSlot(0)]; got != want {
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

// discard is a Sink that drops every record. A VM with a Sink keeps its
// one-to-one op list, so attaching discard turns fusion off and
// changes nothing else.
type discard struct{}

func (discard) Append(trace.Rec) {}

// fusedEdges are TestInlinedALUMatchesEvalOp's edge operands.
var fusedEdges = []uint64{0, 1, 3, 63, 64, 65, 127, 128, 0xFF,
	0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x100000000,
	1<<63 - 1, 1 << 63, ^uint64(0), 0xDEADBEEFCAFEF00D}

// fusedData is the mapped data page of TestFusedOpsMatchComponents:
// r7 points into it, and every other address faults.
const fusedData = 0x20000

// componentInsts returns instructions resolving to the base opcode code,
// over accumulator, GPR (r5, r6, and r7 as a base address), immediate
// and r31 sources. Each writes accumulator 0 when it writes one, and
// GPR dest or a register the other component reads when it writes a
// GPR. An immediate source's value is a placeholder that the caller
// sets.
func componentInsts(code uint8, dest alpha.Reg) []ildp.Inst {
	acc, imm, zero := ildp.AccSrc(), ildp.ImmSrc(0), ildp.GPRSrc(alpha.RegZero)
	r5, r6, r7 := ildp.GPRSrc(5), ildp.GPRSrc(6), ildp.GPRSrc(7)
	base := ildp.Inst{Acc: 0, Dest: dest, Frag: ildp.NoFrag}
	with := func(kind ildp.Kind, op alpha.Op, a, b ildp.Src, writesAcc bool, d alpha.Reg) ildp.Inst {
		inst := base
		inst.Kind, inst.Op, inst.SrcA, inst.SrcB, inst.WritesAcc, inst.Dest = kind, op, a, b, writesAcc, d
		return inst
	}
	var out []ildp.Inst
	alu := func(ops ...alpha.Op) {
		for i, s := range [][2]ildp.Src{{acc, r6}, {r5, imm}, {imm, acc}, {zero, r5}, {r6, zero}, {acc, acc}} {
			d := dest
			if i == 4 {
				d = alpha.RegZero
			}
			out = append(out, with(ildp.KindALU, ops[i%len(ops)], s[0], s[1], true, d))
		}
	}
	switch code {
	case tcache.XAdd:
		alu(alpha.OpADDQ, alpha.OpLDA)
	case tcache.XSub:
		alu(alpha.OpSUBQ)
	case tcache.XAnd:
		alu(alpha.OpAND)
	case tcache.XXor:
		alu(alpha.OpXOR)
	case tcache.XSrl:
		alu(alpha.OpSRL)
	case tcache.XSll:
		alu(alpha.OpSLL)
	case tcache.XS8Add:
		alu(alpha.OpS8ADDQ)
	case tcache.XALU:
		alu(alpha.OpCMPLT, alpha.OpMULQ, alpha.OpSRA, alpha.OpCMPULE)
	case tcache.XMove:
		out = append(out,
			with(ildp.KindCopyToGPR, 0, acc, zero, false, dest),
			with(ildp.KindCopyFromGPR, 0, r5, zero, true, alpha.RegZero),
			with(ildp.KindCopyFromGPR, 0, zero, zero, true, alpha.RegZero))
		eta := with(ildp.KindLoadETA, 0, zero, zero, true, alpha.RegZero)
		vra := with(ildp.KindSaveVRA, 0, zero, zero, false, dest)
		eta.VAddr, vra.VAddr = 0x12345678, 0xFFFFFFFF87654320
		out = append(out, eta, vra)
	case tcache.XLoad:
		for i, a := range []ildp.Src{r7, r7, acc, r5} {
			ld := with(ildp.KindLoad, []alpha.Op{alpha.OpLDQ, alpha.OpLDL}[i%2], a, zero, true, dest)
			ld.Disp = int32(8 * i)
			out = append(out, ld)
		}
	case tcache.XStore:
		for i, s := range [][2]ildp.Src{{r7, acc}, {r7, r5}, {acc, r6}, {r7, zero}} {
			st := with(ildp.KindStore, []alpha.Op{alpha.OpSTQ, alpha.OpSTL}[i%2], s[0], s[1], false, alpha.RegZero)
			st.Disp = int32(16 - 8*i)
			out = append(out, st)
		}
	case tcache.XNop:
		vpc := with(ildp.KindSetVPC, 0, zero, zero, false, alpha.RegZero)
		vpc.VAddr = 0x4444
		out = append(out, vpc)
	case tcache.XPushRAS:
		ras := with(ildp.KindPushRAS, 0, zero, zero, false, alpha.RegZero)
		ras.VAddr = 0x5550
		out = append(out, ras)
	case tcache.XCondBranch:
		for i, a := range []ildp.Src{acc, r5, r6} {
			br := with(ildp.KindCallTransCond, []alpha.Op{alpha.OpBEQ, alpha.OpBNE, alpha.OpBLT}[i], a, zero, false, alpha.RegZero)
			br.VAddr = 0x9000
			out = append(out, br)
		}
	}
	return out
}

// setImm gives every immediate source of inst the value val.
func setImm(inst *ildp.Inst, val uint64) {
	for _, s := range []*ildp.Src{&inst.SrcA, &inst.SrcB} {
		if s.Kind == ildp.SrcImm {
			s.Imm = int64(val)
		}
	}
}

// installPEI installs body as a fragment at vstart of v, followed by a
// call-translator exit to 0x8000, with each instruction at its own V-PC
// and a PEI table, so a faulting load or store traps precisely.
func installPEI(t *testing.T, v *VM, vstart uint64, body ...ildp.Inst) *tcache.Fragment {
	t.Helper()
	exit := ildp.Inst{Kind: ildp.KindCallTrans, VAddr: 0x8000, Acc: ildp.NoAcc, Dest: alpha.RegZero, Frag: ildp.NoFrag}
	insts := append(body, exit)
	res := &translate.Result{VStart: vstart, Insts: insts}
	for i := range insts {
		insts[i].VPC = vstart + 4*uint64(i)
		if insts[i].IsPEI() {
			res.PEI = append(res.PEI, insts[i].VPC)
		}
	}
	f, err := v.tc.Install(res)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFusedOpsMatchComponents runs every fused opcode against its two
// components. For each fusion-table entry, a fragment holding an
// instruction of each component runs in an untimed VM, which fuses the
// pair, and in a VM with a discarding Sink, which runs it one to one,
// from the same register file and memory. The operands are edge values
// from accumulator, GPR, immediate and r31 sources; the components
// share accumulator 0, and the first writes r5, which the second reads
// or writes too. Both runs must end alike (exit address or trap) with
// all 256 register-file slots, Stats and memory equal.
func TestFusedOpsMatchComponents(t *testing.T) {
	newVM := func(sink trace.Sink) *VM {
		m := mem.New()
		m.Strict = true
		if err := m.Map(fusedData, 0x1000); err != nil {
			t.Fatal(err)
		}
		for a := uint64(0); a < 0x1000; a += 8 {
			m.Write64(fusedData+a, 0x0123456789ABCDEF*(a+1))
		}
		cfg := DefaultConfig()
		cfg.Sink = sink
		return New(m, cfg)
	}
	fused, plain := newVM(nil), newVM(discard{})
	vstart := uint64(0x100000)
	n := len(fusedEdges)
	for code := uint8(0); code < 255; code++ {
		first, second, ok := tcache.Components(code)
		if !ok {
			continue
		}
		firsts, seconds := componentInsts(first, 5), componentInsts(second, 6)
		if len(firsts) == 0 || len(seconds) == 0 {
			t.Fatalf("fused opcode %d: no instructions for components %d, %d", code, first, second)
		}
		runs := 0
		for i, i1 := range firsts {
			for j, i2 := range seconds {
				if (i+j)%2 == 1 && i2.Dest == 6 {
					i2.Dest = 5 // the second writes what the first wrote
				}
				fu := installPEI(t, fused, vstart, i1, i2)
				fp := installPEI(t, plain, vstart, i1, i2)
				vstart += 0x100
				for k := 0; k < n*n; k++ {
					x, y := fusedEdges[k%n], fusedEdges[k/n]
					for _, f := range []*tcache.Fragment{fu, fp} {
						setImm(&f.Insts[0], fusedEdges[(k+7)%n])
						setImm(&f.Insts[1], fusedEdges[(k+3)%n])
						f.Ops = nil // the edit changes the resolved immediates
					}
					for _, v := range []*VM{fused, plain} {
						v.rf[tcache.AccSlot(0)] = x
						v.cpu.WriteReg(5, y)
						v.cpu.WriteReg(6, fusedEdges[(k+11)%n])
						v.cpu.WriteReg(7, fusedData+8*uint64(k%16))
					}
					exitU, errU := fused.execTranslated(fu)
					exitP, errP := plain.execTranslated(fp)
					runs++
					if k == 0 && (fu.Ops[0].Code != code || fp.Ops[0].Code != first) {
						t.Fatalf("fused opcode %d: the untimed VM runs %d, the timed %d", code, fu.Ops[0].Code, fp.Ops[0].Code)
					}
					label := fmt.Sprintf("fused opcode %d, %v %v then %v %v, acc %#x r5 %#x",
						code, i1.Kind, i1.Op, i2.Kind, i2.Op, x, y)
					if exitU != exitP || fmt.Sprint(errU) != fmt.Sprint(errP) {
						t.Fatalf("%s: fused ends %#x, %v; one to one %#x, %v", label, exitU, errU, exitP, errP)
					}
					if fused.rf != plain.rf {
						for s := range fused.rf {
							if fused.rf[s] != plain.rf[s] {
								t.Fatalf("%s: slot %d fused %#x, one to one %#x", label, s, fused.rf[s], plain.rf[s])
							}
						}
					}
					fused.FoldCounts()
					plain.FoldCounts()
					if fused.Stats != plain.Stats {
						t.Fatalf("%s: Stats differ:\nfused      %+v\none to one %+v", label, fused.Stats, plain.Stats)
					}
					if ok, addr := mem.Equal(fused.mem, plain.mem); !ok {
						t.Fatalf("%s: memory differs at %#x", label, addr)
					}
				}
			}
		}
		if runs == 0 {
			t.Fatalf("fused opcode %d never ran", code)
		}
	}
}
