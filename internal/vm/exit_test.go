package vm

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// exitGuest runs a hot loop that calls a leaf routine and then jumps
// through a register, to a second target every 64th iteration, so its
// translated code chains through a return and an indirect jump and
// misses in the dispatch table until the rare target is translated.
// The loop walks a2 up to the end address, the format argument. The
// load through a2 computes its address into an accumulator only, and
// in the Basic form it is a PEI point with a recovery pair: t5's new
// value lives only in an accumulator there. On strictMem an end past
// 0x21008 makes that load fault.
const exitGuest = `
	.data 0x20000
	.quad 0x1234567, 89, 0xABCDEF, 3
	.text 0x10000
start:
	ldiq  a0, 0x20000
	ldiq  a2, 0x20008
	ldiq  a1, %#x
	clr   v0
	clr   t5
	clr   s0
loop:
	ldq   t0, 0(a0)
	addq  t5, t0, t5
	ldq   t1, -8(a2)
	addq  t5, t1, t5
	addq  v0, t5, v0
	bsr   mix
	srl   a2, #3, t4
	and   t4, #63, t4
	ldiq  t6, common
	bne   t4, go
	ldiq  t6, rare
go:
	jmp   (t6)
common:
	lda   a2, 8(a2)
	subq  a1, a2, t2
	bne   t2, loop
	call_pal halt
rare:
	addq  s0, #1, s0
	br    common
mix:
	xor   v0, a2, t3
	srl   t3, #3, t3
	addq  s0, t3, s0
	ret
`

// exitWatch observes a VM through its Poll and Stop hooks. Translated
// code leaves the CPU's registers alone until control leaves it, so at
// every hook call inside an episode of translated execution the CPU
// holds the registers the episode started with.
type exitWatch struct {
	v *VM
	// cur and prev are the CPU's registers at the last two hook calls.
	cur, prev [alpha.NumRegs]uint64
	// entries is FragEntries at the last poll. A poll or Stop call that
	// sees more entries follows a chained entry decision.
	entries uint64
	// exits and misses are Exits and dispatch misses at the last Stop
	// call; a Stop call that sees more exits is the Run loop's first
	// boundary after translated code exited.
	exits, misses uint64
	// chainedRefusal is set when the last poll followed a refused
	// chained entry.
	chainedRefusal bool
	// entry is the CPU's registers when the episode that ended the run
	// started; stopAfterExit sets it, with afterExit.
	entry     [alpha.NumRegs]uint64
	afterExit bool
}

func (w *exitWatch) note() { w.prev, w.cur = w.cur, w.v.cpu.Reg }

func (w *exitWatch) chained() bool { return w.v.Stats.FragEntries > w.entries }

func (w *exitWatch) dispatchMisses() uint64 {
	return w.v.Stats.DispatchRuns - w.v.Stats.DispatchHits
}

func (w *exitWatch) poll() {
	w.chainedRefusal = w.chained() && w.v.stopCause != nil
	w.entries = w.v.Stats.FragEntries
	w.note()
}

// stopAfterExit is a Stop decision: once the loop is hot, stop at the
// Run loop's boundary after an exit that missed in the dispatch table
// (miss) or did not (!miss) and changed the CPU's registers.
func (w *exitWatch) stopAfterExit(miss bool) bool {
	exited := w.v.Stats.Exits > w.exits
	missed := w.dispatchMisses() > w.misses
	w.exits, w.misses = w.v.Stats.Exits, w.dispatchMisses()
	// The Run loop's poll just noted the registers after the exit; the
	// call before it was inside the episode.
	if exited && missed == miss && w.cur != w.prev && w.v.Stats.TotalVInsts() >= 1000 {
		w.entry, w.afterExit = w.prev, true
		return true
	}
	return false
}

// interpTo interprets prog on strictMem until n V-instructions have retired
// (0: to the end) and returns the CPU and Run's error.
func interpTo(t *testing.T, prog *alphaprog.Program, n uint64) (*emu.CPU, error) {
	t.Helper()
	cpu := emu.New(strictMem())
	if err := cpu.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return cpu, cpu.Run(int64(n))
}

// sameCPU reports how got differs from the interpreter's want.
func sameCPU(t *testing.T, label string, got, want *emu.CPU) {
	t.Helper()
	if got.PC != want.PC || got.Halted != want.Halted || got.ExitStatus != want.ExitStatus {
		t.Errorf("%s: PC %#x halted %v status %d, interpreter PC %#x halted %v status %d",
			label, got.PC, got.Halted, got.ExitStatus, want.PC, want.Halted, want.ExitStatus)
	}
	for r := range got.Reg {
		if got.Reg[r] != want.Reg[r] {
			t.Errorf("%s: r%d = %#x, interpreter %#x", label, r, got.Reg[r], want.Reg[r])
		}
	}
}

// TestExitsWriteBackRegisters has translated code write GPRs and
// accumulator-only values and then leave by each way out of translated
// code. Afterwards the CPU must hold the interpreter's registers at the
// same V-PC, and a checkpoint of that state, restored into a fresh VM,
// must finish like the interpreter.
func TestExitsWriteBackRegisters(t *testing.T) {
	const inBounds, pastPage = 0x21000, 0x22000
	for _, tc := range []struct {
		name   string
		form   ildp.Form
		chain  translate.ChainMode
		end    uint64
		budget int64
		// stop decides at Stop calls; poll acts at polls.
		stop func(w *exitWatch) bool
		poll func(w *exitWatch)
		// check inspects Run's error and the watch.
		check func(t *testing.T, w *exitWatch, err error)
	}{
		{name: "call-translator", form: ildp.Modified, chain: translate.SWPredRAS, end: inBounds,
			stop: func(w *exitWatch) bool { return w.stopAfterExit(false) },
			check: func(t *testing.T, w *exitWatch, err error) {
				if !errors.Is(err, ErrPreempted) {
					t.Fatalf("Run = %v, want the Stop hook's preemption after the exit", err)
				}
			}},
		{name: "load trap with a PEIRecover pair", form: ildp.Basic, chain: translate.SWPredRAS, end: pastPage,
			check: func(t *testing.T, w *exitWatch, err error) {
				var trap *emu.Trap
				if !errors.As(err, &trap) {
					t.Fatalf("Run = %v, want a precise trap", err)
				}
				if n := peiRecoverPairs(w.v, trap.PC); n == 0 {
					t.Fatal("the trapping load has no PEIRecover pair")
				}
			}},
		{name: "budget at a chained entry", form: ildp.Modified, chain: translate.SWPredRAS, end: inBounds,
			budget: 3001,
			check: func(t *testing.T, w *exitWatch, err error) {
				if !errors.Is(err, ErrBudget) || !w.chainedRefusal {
					t.Fatalf("Run = %v, chained refusal %v; want a budget refusal at a chained entry",
						err, w.chainedRefusal)
				}
			}},
		{name: "stop refusal", form: ildp.Basic, chain: translate.SWPredRAS, end: inBounds,
			stop: func(w *exitWatch) bool { return w.chained() && w.v.Stats.TotalVInsts() >= 3000 },
			check: func(t *testing.T, w *exitWatch, err error) {
				if !errors.Is(err, ErrPreempted) || errors.Is(err, ErrBudget) || !w.chainedRefusal {
					t.Fatalf("Run = %v, chained refusal %v; want the Stop hook's refusal at a chained entry",
						err, w.chainedRefusal)
				}
			}},
		{name: "dispatch miss", form: ildp.Modified, chain: translate.NoPred, end: inBounds,
			stop: func(w *exitWatch) bool { return w.stopAfterExit(true) },
			check: func(t *testing.T, w *exitWatch, err error) {
				if !errors.Is(err, ErrPreempted) {
					t.Fatalf("Run = %v, want the Stop hook's preemption after the miss", err)
				}
			}},
		{name: "recovered SemanticsError", form: ildp.Modified, chain: translate.SWPredRAS, end: inBounds,
			// At a chained entry, break the first instruction after the
			// set-vpc of every fragment but the episode's first, whose
			// V-start the CPU still holds, so the one being entered
			// panics before it changes anything.
			poll: func(w *exitWatch) {
				if !w.chained() || w.v.stopCause != nil || w.v.Stats.TotalVInsts() < 3000 {
					return
				}
				for id := 0; id < w.v.tc.Len(); id++ {
					if f := w.v.tc.Frag(int32(id)); f != nil && len(f.Insts) > 1 && f.VStart != w.v.cpu.PC {
						f.Insts[1].Kind, f.Insts[1].Op = ildp.KindALU, alpha.OpCallPAL
						f.Ops = nil
					}
				}
			},
			check: func(t *testing.T, w *exitWatch, err error) {
				var se *emu.SemanticsError
				if !errors.As(err, &se) {
					t.Fatalf("Run = %v, want an *emu.SemanticsError", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := alphaasm.MustAssemble(fmt.Sprintf(exitGuest, tc.end))
			cfg := DefaultConfig()
			cfg.Form, cfg.Chain, cfg.HotThreshold = tc.form, tc.chain, 4
			resumeCfg := cfg
			w := &exitWatch{}
			cfg.Poll = func() {
				if tc.poll != nil {
					tc.poll(w)
				}
				w.poll()
			}
			cfg.Stop = func() bool {
				stop := tc.stop != nil && tc.stop(w)
				w.note()
				return stop
			}
			v := New(strictMem(), cfg)
			w.v = v
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			err := v.Run(tc.budget)
			tc.check(t, w, err)
			if !w.afterExit {
				// The run ended inside its last episode.
				w.entry = w.cur
			}
			if v.cpu.Reg == w.entry {
				t.Fatal("the exit left the CPU's registers as the episode found them")
			}
			if !accOnlyWrites(v) {
				t.Fatal("no executed instruction writes an accumulator and no GPR")
			}

			n := v.Stats.TotalVInsts()
			want, werr := interpTo(t, prog, n)
			if werr != nil && !errors.Is(werr, emu.ErrInstLimit) && !errors.As(werr, new(*emu.Trap)) {
				t.Fatalf("interpreter to %d V-insts: %v", n, werr)
			}
			sameCPU(t, "at the exit", v.CPU(), want)

			st, derr := checkpoint.Decode(checkpoint.Encode(v.Checkpoint()))
			if derr != nil {
				t.Fatalf("decoding the checkpoint: %v", derr)
			}
			fresh := New(strictMem(), resumeCfg)
			fresh.Restore(st)
			rerr := fresh.Run(0)
			final, ferr := interpTo(t, prog, 0)
			if (rerr == nil) != (ferr == nil) {
				t.Fatalf("resumed run = %v, interpreter = %v", rerr, ferr)
			}
			sameCPU(t, "resumed", fresh.CPU(), final)
			if got := fresh.Stats.TotalVInsts(); got != final.InstCount {
				t.Errorf("resumed run retired %d V-insts in all, interpreter %d", got, final.InstCount)
			}
		})
	}
}

// peiRecoverPairs returns the number of PEIRecover pairs at the load at
// V-PC vpc in v's translation cache.
func peiRecoverPairs(v *VM, vpc uint64) int {
	for id := 0; id < v.tc.Len(); id++ {
		f := v.tc.Frag(int32(id))
		if f == nil {
			continue
		}
		pei := 0
		for i := range f.Insts {
			in := &f.Insts[i]
			if in.VPC == vpc && in.Kind == ildp.KindLoad {
				return len(f.PEIRecover[pei])
			}
			if peiPoint(in) {
				pei++
			}
		}
	}
	return 0
}

// accOnlyWrites reports whether an executed fragment of v has an ALU op
// or a load that writes its accumulator and no GPR.
func accOnlyWrites(v *VM) bool {
	for id := 0; id < v.tc.Len(); id++ {
		f := v.tc.Frag(int32(id))
		if f == nil || f.ExecCount == 0 {
			continue
		}
		for i := range f.Insts {
			in := &f.Insts[i]
			if (in.Kind == ildp.KindALU || in.Kind == ildp.KindLoad) && in.WritesAcc && in.Dest == alpha.RegZero {
				return true
			}
		}
	}
	return false
}
