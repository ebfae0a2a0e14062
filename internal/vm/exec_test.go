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
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// inlineDispatch replaces every branch into the shared dispatch routine
// with the indirect jump that ends the routine, so the executor performs
// the lookup at an indirect jump inside the fragment itself.
func inlineDispatch(res *translate.Result) {
	for i := range res.Insts {
		in := &res.Insts[i]
		if in.Kind == ildp.KindBranch && in.Frag == ildp.FragDispatch {
			*in = ildp.Inst{Kind: ildp.KindJumpInd, SrcA: ildp.GPRSrc(ildp.RegJTarget),
				Acc: ildp.NoAcc, Dest: alpha.RegZero, Frag: ildp.NoFrag,
				VPC: in.VPC, Class: ildp.ClassChain, VCredit: in.VCredit}
		}
	}
}

// TestRefusedEntryExitsToVM has the Stop hook refuse one chained entry
// of each kind that reaches the entry check from inside translated code
// without a direct link: a RAS hit, a dispatch hit in the shared
// routine, and a dispatch hit at an indirect jump inside a fragment.
// Each refusal is an exit to the VM, so the profiler frame of the
// fragment that made the transfer must close with ExitVM, not stay open
// until the preemption closes it.
func TestRefusedEntryExitsToVM(t *testing.T) {
	ref := refRun(t, torture)
	for _, tc := range []struct {
		name   string
		chain  translate.ChainMode
		mutate func(*translate.Result)
		hits   func(*Stats) uint64
	}{
		{"ras hit", translate.SWPredRAS, nil, func(s *Stats) uint64 { return s.RASHits }},
		{"dispatch hit", translate.NoPred, nil, func(s *Stats) uint64 { return s.DispatchHits }},
		{"inline dispatch hit", translate.NoPred, inlineDispatch, func(s *Stats) uint64 { return s.DispatchHits }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prof.New(prof.Config{Capacity: 1 << 20})
			cfg := DefaultConfig()
			cfg.Chain = tc.chain
			cfg.HotThreshold = 5
			cfg.Prof = p
			var v *VM
			var seen uint64
			refusedAt := -1
			// A hit counter that moved since the last poll means this poll
			// is the entry check of that hit's transfer.
			cfg.Stop = func() bool {
				n := tc.hits(&v.Stats)
				hit := n != seen
				seen = n
				if hit && refusedAt < 0 {
					refusedAt = int(p.EventsRecorded())
					return true
				}
				return false
			}
			v = New(mem.New(), cfg)
			v.testMutateResult = tc.mutate
			if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(0); !errors.Is(err, ErrPreempted) {
				t.Fatalf("Run = %v, want the refused entry's preemption", err)
			}
			if p.EventsDropped() != 0 {
				t.Fatal("profiler ring wrapped; enlarge it")
			}
			exit := prof.ExitKind(255)
			for _, e := range p.Events()[refusedAt:] {
				if e.Kind == prof.EvExit {
					exit = prof.ExitKind(e.Arg)
					break
				}
			}
			if exit != prof.ExitVM {
				t.Errorf("refused entry closed its frame with %v, want %v", exit, prof.ExitVM)
			}
			if err := v.Run(0); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			compareState(t, tc.name, ref, v, resultsAddrs())
		})
	}
}

// countingRun runs src in a VM with a trace.Counter sink and checks, at
// every Poll callback and whenever Run returns, that the executed
// translated instructions counted in Stats are exactly the records the
// sink received. budgets are successive Run budgets; the last Run
// continues to the end. It returns the VM and the final Run's error.
func countingRun(t *testing.T, label string, m *mem.Memory, cfg Config, src string, budgets ...int64) (*VM, error) {
	t.Helper()
	var c trace.Counter
	var v *VM
	polls, bad := 0, 0
	check := func(where string) {
		if v.Stats.TransIInsts != c.Recs || v.Stats.TransVInsts != c.VCredit {
			if bad++; bad == 1 {
				t.Errorf("%s, %s: Stats count %d I / %d V, the trace %d I / %d V",
					label, where, v.Stats.TransIInsts, v.Stats.TransVInsts, c.Recs, c.VCredit)
			}
		}
	}
	cfg.Sink = &c
	cfg.Poll = func() { polls++; check(fmt.Sprintf("poll %d", polls)) }
	v = New(m, cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	var err error
	for _, b := range append(budgets, 0) {
		err = v.Run(b)
		check("end of Run")
		if b != 0 && !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: Run(%d) = %v, want a budget preemption", label, b, err)
		}
	}
	if v.Stats.TransIInsts == 0 || polls == 0 {
		t.Errorf("%s: vacuous: %d translated I-insts, %d polls", label, v.Stats.TransIInsts, polls)
	}
	return v, err
}

// trapLoop walks a2 from a mapped page into an unmapped one (Strict
// memory), so the access through a2 faults after hundreds of chained
// re-entries into the loop's fragment. Three PEI points — a load and two
// stores — precede it in every visit.
const trapLoop = `
	.text 0x10000
start:
	ldiq  a0, 0x20000
	ldiq  a2, 0x20000
	ldiq  a1, 0x30000
	clr   v0
loop:
	ldq   t0, 0(a0)
	stq   v0, 8(a0)
	addq  t0, #1, t0
	stq   t0, 0(a0)
	%s
	addq  v0, t1, v0
	lda   a2, 8(a2)
	subq  a1, a2, t2
	bne   t2, loop
	call_pal halt
`

// strictMem returns Strict memory with the one page trapLoop may touch.
func strictMem() *mem.Memory {
	m := mem.New()
	m.Strict = true
	m.Map(0x20000, mem.PageSize)
	return m
}

// TestStatsMatchTraceWhereVisible checks that Stats are exact at every
// point an observer can see them, although the executor adds a visit's
// counters only when the visit ends: at every Poll callback and at every
// return from Run, Stats.TransIInsts and Stats.TransVInsts equal the
// records and V-credits a trace.Counter received. It covers the twelve
// kernels in three translation configurations, a precise trap in
// translated code, and budget preemptions.
func TestStatsMatchTraceWhereVisible(t *testing.T) {
	basic := DefaultConfig()
	basic.Form, basic.Chain = ildp.Basic, translate.NoPred
	straight := DefaultConfig()
	straight.Straighten = true
	configs := map[string]Config{"modified": DefaultConfig(), "basic no_pred": basic, "straightened": straight}
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for cname, cfg := range configs {
			label := name + ", " + cname
			if _, err := countingRun(t, label, mem.New(), cfg, spec.Source); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.HotThreshold = 4
	_, err := countingRun(t, "trap", strictMem(), cfg, fmt.Sprintf(trapLoop, "ldq t1, 0(a2)"))
	var trap *emu.Trap
	if !errors.As(err, &trap) {
		t.Errorf("trap guest: Run = %v, want a precise trap", err)
	}
	if _, err := countingRun(t, "budget", mem.New(), cfg, torture, 7_001, 15_013); err != nil {
		t.Errorf("budget guest: %v", err)
	}
}

// TestPreciseTrapAtLaterPEI faults a load and a store at the fourth PEI
// point of a fragment visit, after hundreds of chained re-entries into
// the same fragment, in both accumulator forms and in straightened
// code. The PEI index, found only when the trap happens, must recover
// the interpreter's V-PC, registers and retired-instruction count.
func TestPreciseTrapAtLaterPEI(t *testing.T) {
	basic := DefaultConfig()
	basic.Form = ildp.Basic
	straight := DefaultConfig()
	straight.Straighten = true
	configs := map[string]Config{"basic": basic, "modified": DefaultConfig(), "straightened": straight}
	for _, access := range []string{"ldq t1, 0(a2)", "stq v0, 0(a2)"} {
		prog := alphaasm.MustAssemble(fmt.Sprintf(trapLoop, access))
		ref := emu.New(strictMem())
		if err := ref.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		var want *emu.Trap
		if err := ref.Run(10_000_000); !errors.As(err, &want) {
			t.Fatalf("%s: interpreter run = %v, want a trap", access, err)
		}
		for name, cfg := range configs {
			label := access + ", " + name
			cfg.HotThreshold = 4
			v := New(strictMem(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			var got *emu.Trap
			if err := v.Run(10_000_000); !errors.As(err, &got) {
				t.Errorf("%s: Run = %v, want a trap", label, err)
				continue
			}
			if got.PC != want.PC {
				t.Errorf("%s: trap V-PC %#x, interpreter %#x", label, got.PC, want.PC)
			}
			for r := range v.CPU().Reg {
				if v.CPU().Reg[r] != ref.Reg[r] {
					t.Errorf("%s: r%d = %#x, interpreter %#x", label, r, v.CPU().Reg[r], ref.Reg[r])
				}
			}
			if n := v.Stats.TotalVInsts(); n != ref.InstCount {
				t.Errorf("%s: %d V-insts retired, interpreter %d", label, n, ref.InstCount)
			}
			// The fault must be the k-th PEI point of a fragment entered
			// again and again, with k >= 2.
			k, entries := -1, uint64(0)
			for id := 0; id < v.TCache().Len(); id++ {
				f := v.TCache().Frag(int32(id))
				if f == nil {
					continue
				}
				pei := 0
				for i := range f.Insts {
					in := &f.Insts[i]
					if in.VPC == got.PC && (in.Kind == ildp.KindLoad || in.Kind == ildp.KindStore) {
						k, entries = pei, f.ExecCount
						break
					}
					if peiPoint(in) {
						pei++
					}
				}
			}
			if k < 2 || entries < 2 {
				t.Errorf("%s: faulted at PEI %d of a fragment entered %d times, want PEI >= 2 after a re-entry",
					label, k, entries)
			}
		}
	}
}

// TestWarmTranslatedExecutionAllocs pins translated execution without a
// sink as heap-free: once the guest's hot paths are translated,
// running it again from the top allocates nothing.
func TestWarmTranslatedExecutionAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	cpu := v.CPU()
	regs, pc := cpu.Reg, cpu.PC
	rerun := func() {
		cpu.Reg, cpu.PC, cpu.Halted = regs, pc, false
		cpu.Console = cpu.Console[:0]
		if err := v.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		rerun()
	}
	v.cfg.HotThreshold = 1 << 30 // translate nothing more
	before := v.Stats.TransIInsts
	if allocs := testing.AllocsPerRun(10, rerun); allocs != 0 {
		t.Errorf("warm translated run allocates %v times", allocs)
	}
	if v.Stats.TransIInsts == before {
		t.Error("no translated code ran; the test is vacuous")
	}
}
