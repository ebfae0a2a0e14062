package main

import (
	"bytes"
	"fmt"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// oracleLimit bounds an interpreter oracle run; every kernel at every
// scale the benchmark uses halts far below it.
const oracleLimit = 1 << 30

// guest is one generated program and, once computed, its oracle: the
// final architected state of a pure-interpreter run.
type guest struct {
	kernel string
	seed   uint64 // workload data seed
	scale  int
	spec   *workload.Spec
	prog   *alphaprog.Program
	image  []byte // the program image as a client uploads it
	want   *emu.CPU
}

// makeGuests generates and assembles the twelve kernels for each data
// seed, in seed-major order.
func makeGuests(l *lane, seeds []uint64, scale int) ([]*guest, error) {
	l.begin("bench.assemble")
	var out []*guest
	for _, seed := range seeds {
		for _, name := range workload.Names() {
			spec, err := workload.ByNameSeeded(name, scale, seed)
			if err != nil {
				l.end(0)
				return nil, err
			}
			prog, err := spec.Program()
			if err != nil {
				l.end(0)
				return nil, err
			}
			out = append(out, &guest{kernel: name, seed: seed, scale: scale, spec: spec, prog: prog})
		}
	}
	l.end(float64(len(out)))
	return out, nil
}

// seedRange returns n data seeds derived from the run seed; run seed 0
// includes data seed 0, the paper's canonical data set.
func seedRange(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*uint64(n) + uint64(i)
	}
	return out
}

// withImages serialises every guest's program image.
func withImages(gs []*guest) error {
	for _, g := range gs {
		var b bytes.Buffer
		if err := g.prog.Save(&b); err != nil {
			return fmt.Errorf("%s: %w", g.kernel, err)
		}
		g.image = b.Bytes()
	}
	return nil
}

// runOracle runs prog to completion on the pure interpreter.
func runOracle(l *lane, prog *alphaprog.Program) (*emu.CPU, error) {
	cpu := emu.New(mem.New())
	if err := cpu.LoadProgram(prog); err != nil {
		return nil, err
	}
	l.begin("emu.run")
	err := cpu.Run(oracleLimit)
	l.end(float64(cpu.InstCount))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if !cpu.Halted {
		return nil, fmt.Errorf("oracle: guest did not halt")
	}
	return cpu, nil
}

// oracles computes every guest's oracle. The total is the per-layer
// emu.vinsts count: the interpreter work of one pass over the guests.
func (r *run) oracles(l *lane, gs []*guest) error {
	var n uint64
	for _, g := range gs {
		l.nextTrace()
		cpu, err := runOracle(l, g.prog)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", g.kernel, g.seed, err)
		}
		g.want = cpu
		n += cpu.InstCount
	}
	r.res.Metrics["emu.vinsts"] = float64(n)
	return nil
}

// runVM loads prog into a fresh VM and runs it to completion, timing
// the run as a vm.run span credited with the instructions executed.
func runVM(l *lane, prog *alphaprog.Program, cfg vm.Config) (*vm.VM, error) {
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(prog); err != nil {
		return v, err
	}
	l.begin("vm.run")
	err := v.Run(0)
	l.end(float64(v.Stats.TransIInsts + v.Stats.InterpInsts))
	return v, err
}

// sameCPU compares a final machine state against the oracle.
func sameCPU(want, got *emu.CPU) error {
	return sameState(want, got.PC, got.Reg, got.Halted, got.ExitStatus, got.Console, got.Mem)
}

// sameCheckpoint compares a decoded final checkpoint against the oracle.
func sameCheckpoint(want *emu.CPU, st *checkpoint.State) error {
	m := mem.New()
	m.LoadSnapshot(st.Pages)
	return sameState(want, st.PC, st.Reg, st.Halted, st.ExitStatus, st.Console, m)
}

// sameState checks PC, registers, console, exit status and memory bit
// for bit.
func sameState(want *emu.CPU, pc uint64, reg [32]uint64, halted bool, exit uint64, console []byte, m *mem.Memory) error {
	switch {
	case halted != want.Halted || exit != want.ExitStatus:
		return fmt.Errorf("halted/exit %v/%d, oracle %v/%d", halted, exit, want.Halted, want.ExitStatus)
	case pc != want.PC:
		return fmt.Errorf("PC %#x, oracle %#x", pc, want.PC)
	case reg != want.Reg:
		return fmt.Errorf("register file differs from the oracle")
	case !bytes.Equal(console, want.Console):
		return fmt.Errorf("console differs from the oracle")
	}
	if ok, addr := mem.Equal(m, want.Mem); !ok {
		return fmt.Errorf("memory differs from the oracle at %#x", addr)
	}
	return nil
}

// counts are the exact counts of one pass over a workload's guests. They
// repeat bit for bit for a seed, so every pass must match the first.
type counts struct {
	Runs, VInsts, InterpInsts, TransIInsts, Fragments uint64
	TranslateCost, StoreHits, StoreMisses             uint64
	SimRecords, Quanta                                uint64
}

func (c *counts) addVM(s *vm.Stats) {
	c.Runs++
	c.VInsts += s.TotalVInsts()
	c.InterpInsts += s.InterpInsts
	c.TransIInsts += s.TransIInsts
	c.Fragments += uint64(s.Fragments)
	c.TranslateCost += uint64(s.TranslateCost)
	c.StoreHits += s.StoreHits
	c.StoreMisses += s.StoreMisses
}

// samePass records the first pass's counts and fails any later pass
// whose counts differ.
func (r *run) samePass(base **counts, c counts) {
	if *base == nil {
		*base = &c
		return
	}
	if **base != c {
		r.fail("determinism: pass counts %+v differ from the first pass's %+v", c, **base)
	}
}

// publishCounts prints the determinism counts and derives the per-layer
// count metrics from them.
func (r *run) publishCounts(c *counts) {
	if c == nil {
		return
	}
	r.res.Counts = map[string]uint64{
		"vm_runs": c.Runs, "v_insts": c.VInsts, "interp_insts": c.InterpInsts,
		"trans_i_insts": c.TransIInsts, "fragments": c.Fragments,
		"translate_work_units": c.TranslateCost, "store_hits": c.StoreHits,
		"store_misses": c.StoreMisses, "sim_records": c.SimRecords, "quanta": c.Quanta,
	}
	m := r.res.Metrics
	m["vm.interp_frac"] = ratio(c.InterpInsts, c.VInsts)
	m["vm.fragments_per_run"] = ratio(c.Fragments, c.Runs)
	m["fragstore.hit_ratio"] = ratio(c.StoreHits, c.StoreHits+c.StoreMisses)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
