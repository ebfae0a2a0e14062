package vm

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/workload"
)

// fusionForms are the three machine configurations of the paper's
// experiments.
var fusionForms = []struct {
	name       string
	form       ildp.Form
	straighten bool
}{
	{"basic", ildp.Basic, false},
	{"modified", ildp.Modified, false},
	{"straightened", ildp.Modified, true},
}

// fusedRun is one guest run and what it leaves behind.
type fusedRun struct {
	v     *VM
	err   error
	polls []Stats // Stats, folded, at every Poll boundary
}

// runFusion runs a VM built from cfg, with the Sink set to sink, over
// the memory newMem returns. Before Run, setup (when non-nil) may load
// the guest and install code. Every Poll folds the visit-end counts
// into Stats and records them.
func runFusion(t *testing.T, cfg Config, sink trace.Sink, newMem func() *mem.Memory, setup func(*VM)) *fusedRun {
	t.Helper()
	r := &fusedRun{}
	cfg.Sink = sink
	cfg.Poll = func() {
		r.v.FoldCounts()
		r.polls = append(r.polls, r.v.Stats)
	}
	r.v = New(newMem(), cfg)
	setup(r.v)
	r.err = r.v.Run(50_000_000)
	return r
}

// sameRun checks that a fused run and a one-to-one run of one guest
// ended alike: the same error, registers, Stats at every Poll and at
// the end, memory and console.
func sameRun(t *testing.T, label string, fused, plain *fusedRun) {
	t.Helper()
	if fmt.Sprint(fused.err) != fmt.Sprint(plain.err) {
		t.Fatalf("%s: fused run ended %v, one to one %v", label, fused.err, plain.err)
	}
	cu, cp := fused.v.CPU(), plain.v.CPU()
	if cu.Reg != cp.Reg || cu.PC != cp.PC {
		t.Errorf("%s: registers differ:\nfused      pc %#x %#x\none to one pc %#x %#x", label, cu.PC, cu.Reg, cp.PC, cp.Reg)
	}
	if fused.v.Stats != plain.v.Stats {
		t.Errorf("%s: Stats differ:\nfused      %+v\none to one %+v", label, fused.v.Stats, plain.v.Stats)
	}
	if len(fused.polls) != len(plain.polls) {
		t.Errorf("%s: %d Poll boundaries fused, %d one to one", label, len(fused.polls), len(plain.polls))
	} else {
		for i := range fused.polls {
			if fused.polls[i] != plain.polls[i] {
				t.Errorf("%s: Stats differ at Poll %d:\nfused      %+v\none to one %+v", label, i, fused.polls[i], plain.polls[i])
				break
			}
		}
	}
	if ok, addr := mem.Equal(fused.v.mem, plain.v.mem); !ok {
		t.Errorf("%s: memory differs at %#x", label, addr)
	}
	if cu.ConsoleString() != cp.ConsoleString() || cu.ExitStatus != cp.ExitStatus {
		t.Errorf("%s: console %q exit %d fused, %q exit %d one to one", label,
			cu.ConsoleString(), cu.ExitStatus, cp.ConsoleString(), cp.ExitStatus)
	}
}

// fusedOps counts the fused ops the translation cache of v holds.
func fusedOps(v *VM) int {
	n := 0
	for id := int32(0); int(id) < v.tc.Len(); id++ {
		if f := v.tc.Frag(id); f != nil {
			for _, op := range f.Ops {
				if _, _, ok := tcache.Components(op.Code); ok {
					n++
				}
			}
		}
	}
	return n
}

// TestFusedRunsMatchOneToOne runs the twelve kernels at scale 1 on the
// three machine configurations twice: untimed, which fuses op pairs,
// and with a discarding Sink, which keeps the one-to-one op list. Stats,
// registers, memory and console must be identical.
func TestFusedRunsMatchOneToOne(t *testing.T) {
	for _, mc := range fusionForms {
		t.Run(mc.name, func(t *testing.T) {
			fused := 0
			for _, name := range workload.Names() {
				spec, err := workload.ByName(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				prog := spec.MustProgram()
				cfg := DefaultConfig()
				cfg.Form, cfg.Straighten = mc.form, mc.straighten
				cfg.HotThreshold = 10
				load := func(v *VM) {
					if err := v.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
				}
				u := runFusion(t, cfg, nil, mem.New, load)
				p := runFusion(t, cfg, discard{}, mem.New, load)
				if u.err != nil {
					t.Fatalf("%s: %v", name, u.err)
				}
				sameRun(t, name, u, p)
				if n := fusedOps(p.v); n != 0 {
					t.Fatalf("%s: the VM with a Sink ran %d fused ops", name, n)
				}
				fused += fusedOps(u.v)
			}
			if fused == 0 {
				t.Fatal("no kernel ran a fused op")
			}
		})
	}
}

// fusedTrapLoop walks an array off the end of its one mapped page: the
// lda and the ldq after it translate to an add and a load that fuse, so
// the load that faults is a fused pair's second component.
const fusedTrapLoop = `
	.text 0x10000
start:
	ldiq  a0, 0x1FFF8
	ldiq  a1, 0x30000
	clr   v0
loop:
	subq  a1, a0, t1
	lda   a0, 8(a0)
	ldq   t0, 0(a0)
	addq  v0, t0, v0
	bne   t1, loop
	call_pal halt
`

// TestFusedSecondComponentTraps checks a fault in a fused pair's second
// component. A load to an unmapped page of Strict memory must trap, and
// an EvalOp panic must surface, with the same trap PC, registers, Stats
// (into which Run folds every fragment's visit-end counts, at each Poll
// too) as the same guest run with a discarding Sink, which keeps the
// one-to-one op list.
func TestFusedSecondComponentTraps(t *testing.T) {
	strict := func() *mem.Memory {
		m := mem.New()
		m.Strict = true
		m.Map(0x20000, 0x1000) // 0x21000 faults
		return m
	}
	// Basic form copies the lda's result to a0 between the two, so the
	// load follows a move and runs unfused there.
	for _, mc := range fusionForms[1:] {
		t.Run("load/"+mc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Form, cfg.Straighten = mc.form, mc.straighten
			cfg.HotThreshold = 4
			load := func(v *VM) {
				if err := v.LoadProgram(alphaasm.MustAssemble(fusedTrapLoop)); err != nil {
					t.Fatal(err)
				}
			}
			u := runFusion(t, cfg, nil, strict, load)
			p := runFusion(t, cfg, discard{}, strict, load)
			var trap *emu.Trap
			if !errors.As(u.err, &trap) {
				t.Fatalf("fused run: %v, want a trap", u.err)
			}
			sameRun(t, mc.name, u, p)
			if !trapsInSecond(u.v, trap.PC) {
				t.Fatalf("the trap at %#x is not in a fused pair's second component", trap.PC)
			}
		})
	}
	t.Run("evalop", func(t *testing.T) {
		var frags []*tcache.Fragment
		install := func(v *VM) {
			if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
				t.Fatal(err)
			}
			v.cpu.WriteReg(1, 0x1234)
			frags = append(frags, installBody(t, v, v.cpu.PC,
				ildp.Inst{Kind: ildp.KindCopyFromGPR, SrcA: ildp.GPRSrc(1), Acc: 0,
					WritesAcc: true, Dest: alpha.RegZero, Frag: ildp.NoFrag},
				aluInst(alpha.OpCallPAL, ildp.AccSrc(), ildp.ImmSrc(1))))
		}
		u := runFusion(t, DefaultConfig(), nil, mem.New, install)
		p := runFusion(t, DefaultConfig(), discard{}, mem.New, install)
		var se *emu.SemanticsError
		if !errors.As(u.err, &se) || se.Func != "EvalOp" {
			t.Fatalf("fused run: %v, want an EvalOp *emu.SemanticsError", u.err)
		}
		sameRun(t, "evalop", u, p)
		if got := frags[0].Ops[1].Code; got != tcache.XMoveALU {
			t.Fatalf("the move and the panicking op run as opcode %d, want the fused move-alu", got)
		}
		if u.v.visit != nil {
			t.Fatal("the visit is still open after the panic")
		}
	})
}

// trapsInSecond reports whether the instruction at V-PC pc is the
// second component of a fused op in v's translation cache.
func trapsInSecond(v *VM, pc uint64) bool {
	for id := int32(0); int(id) < v.tc.Len(); id++ {
		f := v.tc.Frag(id)
		if f == nil || f.Ops == nil {
			continue
		}
		for i := 0; i+1 < len(f.Ops); i++ {
			if _, _, ok := tcache.Components(f.Ops[i].Code); ok && f.Insts[i+1].VPC == pc && f.Insts[i+1].IsPEI() {
				return true
			}
		}
	}
	return false
}
