package vm

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/translate"
)

// Differential testing: generate pseudo-random but guaranteed-terminating
// Alpha programs — random ALU/memory/branch/call soup over a bounded
// arena — and require the VM to produce architected state bit-identical
// to pure interpretation under every ISA form and chaining mode. This is
// the strongest correctness statement the reproduction makes: dynamic
// binary translation is semantically invisible.

type progRNG uint64

func (r *progRNG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

func (r *progRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *progRNG) pick(ss []string) string { return ss[r.intn(len(ss))] }

// genRandomProgram builds a random program of `blocks` basic blocks.
// Termination: every block decrements a dedicated counter (s5) and exits
// when it reaches zero, so any branch topology terminates after at most
// `fuel` block executions.
func genRandomProgram(seed uint64, blocks, fuel int) string {
	rng := progRNG(seed)
	var b strings.Builder

	regs := []string{"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
		"a0", "a1", "a2", "a3", "s0", "s1", "s2"}
	aluOps := []string{"addq", "subq", "xor", "and", "bis", "bic", "ornot",
		"addl", "subl", "cmpeq", "cmplt", "cmple", "cmpult", "s4addq", "s8addq"}
	shiftOps := []string{"sll", "srl", "sra"}
	cmovOps := []string{"cmoveq", "cmovne", "cmovlt", "cmovge"}
	condBr := []string{"beq", "bne", "blt", "bge", "ble", "bgt", "blbc", "blbs"}

	fmt.Fprintf(&b, `
	.data 0x20000
arena:
	.space 1024
jtab:
	.quad jt0, jt1

	.text 0x10000
	.entry start
start:
	ldiq  sp, 0x7ff000
	ldiq  fp, arena
	ldiq  s5, %d
`, fuel)
	// Random register initialisation.
	for _, reg := range regs {
		fmt.Fprintf(&b, "\tldiq  %s, %d\n", reg, rng.intn(1<<30)-(1<<29))
	}

	for blk := 0; blk < blocks; blk++ {
		fmt.Fprintf(&b, "blk%d:\n", blk)
		nops := 3 + rng.intn(8)
		for i := 0; i < nops; i++ {
			switch rng.intn(12) {
			case 0, 1, 2, 3, 4: // ALU reg/reg or reg/lit
				op := rng.pick(aluOps)
				a, c := rng.pick(regs), rng.pick(regs)
				if rng.intn(2) == 0 {
					fmt.Fprintf(&b, "\t%s %s, #%d, %s\n", op, a, rng.intn(256), c)
				} else {
					fmt.Fprintf(&b, "\t%s %s, %s, %s\n", op, a, rng.pick(regs), c)
				}
			case 5: // shift by literal
				fmt.Fprintf(&b, "\t%s %s, #%d, %s\n", rng.pick(shiftOps),
					rng.pick(regs), rng.intn(64), rng.pick(regs))
			case 6: // multiply
				fmt.Fprintf(&b, "\tmulq %s, %s, %s\n", rng.pick(regs), rng.pick(regs), rng.pick(regs))
			case 7: // conditional move
				fmt.Fprintf(&b, "\t%s %s, %s, %s\n", rng.pick(cmovOps),
					rng.pick(regs), rng.pick(regs), rng.pick(regs))
			case 8: // load from the arena
				fmt.Fprintf(&b, "\tldq %s, %d(fp)\n", rng.pick(regs), rng.intn(128)*8)
			case 9: // store to the arena
				fmt.Fprintf(&b, "\tstq %s, %d(fp)\n", rng.pick(regs), rng.intn(128)*8)
			case 10: // byte load + lda
				fmt.Fprintf(&b, "\tldbu %s, %d(fp)\n", rng.pick(regs), rng.intn(1024))
				fmt.Fprintf(&b, "\tlda %s, %d(%s)\n", rng.pick(regs), rng.intn(64), rng.pick(regs))
			case 11: // call the leaf helper, or take the jump table
				if rng.intn(2) == 0 {
					fmt.Fprintf(&b, "\tbsr helper\n")
				} else {
					fmt.Fprintf(&b, "\tand %s, #1, t8\n", rng.pick(regs))
					fmt.Fprintf(&b, "\tldiq t9, jtab\n")
					fmt.Fprintf(&b, "\ts8addq t8, t9, t9\n")
					fmt.Fprintf(&b, "\tldq t9, 0(t9)\n")
					fmt.Fprintf(&b, "\tjmp (t9)\n")
					fmt.Fprintf(&b, "jret%d_%d:\n", blk, i)
					// jt0/jt1 do not return here; they re-enter at jcont.
					// The label just creates an extra superblock entry.
				}
			}
		}
		// Fuel check, then a random conditional branch, then fall through.
		fmt.Fprintf(&b, "\tsubq s5, #1, s5\n")
		fmt.Fprintf(&b, "\tble s5, done\n")
		target := rng.intn(blocks)
		fmt.Fprintf(&b, "\t%s %s, blk%d\n", rng.pick(condBr), rng.pick(regs), target)
		if blk == blocks-1 {
			fmt.Fprintf(&b, "\tbr blk%d\n", rng.intn(blocks))
		}
	}

	b.WriteString(`
helper:
	addq a0, v0, t11
	xor  t11, a1, t11
	srl  t11, #3, t11
	addq v0, t11, v0
	ret
`)
	b.WriteString(epilogueForRandom)
	return b.String()
}

// The jump-table targets mix a register and jump back via a link register
// the dispatching code sets — to keep generation simple they instead fall
// through into the fuel exit (they act as extra superblock entries).
const epilogueForRandom = `
jt0:
	addq v0, #1, v0
	subq s5, #1, s5
	bgt  s5, jt0ret
	br   done
jt0ret:
	br   jcont
jt1:
	xor  v0, #85, v0
	subq s5, #1, s5
	bgt  s5, jt1ret
	br   done
jt1ret:
	br   jcont
jcont:
	subq s5, #1, s5
	bgt  s5, blk0
done:
	call_pal halt
`

func runInterp(t *testing.T, src string) *emu.CPU {
	t.Helper()
	cpu := emu.New(mem.New())
	if err := cpu.LoadProgram(alphaasm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(20_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return cpu
}

func TestDifferentialRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("differential testing is slow")
	}
	configs := []struct {
		name string
		mut  func(*Config)
	}{
		{"modified/ras", func(c *Config) {}},
		{"basic/ras", func(c *Config) { c.Form = ildp.Basic }},
		{"modified/nopred", func(c *Config) { c.Chain = translate.NoPred }},
		{"basic/swpred", func(c *Config) { c.Form = ildp.Basic; c.Chain = translate.SWPred }},
		{"straightened", func(c *Config) { c.Straighten = true }},
		{"modified/1acc", func(c *Config) { c.NumAcc = 1 }},
		{"basic/2acc", func(c *Config) { c.Form = ildp.Basic; c.NumAcc = 2 }},
		{"modified/8acc", func(c *Config) { c.NumAcc = ildp.MaxAccumulators }},
		{"basic/8acc", func(c *Config) { c.Form = ildp.Basic; c.NumAcc = ildp.MaxAccumulators }},
		{"modified/fused", func(c *Config) { c.FuseMemOps = true }},
		{"basic/fused", func(c *Config) { c.Form = ildp.Basic; c.FuseMemOps = true }},
	}

	for seed := uint64(1); seed <= 30; seed++ {
		src := genRandomProgram(seed*0x9E3779B97F4A7C15+seed, 6+int(seed%5), 300)
		ref := runInterp(t, src)
		for _, cc := range configs {
			cfg := DefaultConfig()
			cfg.HotThreshold = 3
			cc.mut(&cfg)
			v := New(mem.New(), cfg)
			if err := v.LoadProgram(alphaasm.MustAssemble(src)); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(40_000_000); err != nil {
				t.Fatalf("seed %d %s: %v", seed, cc.name, err)
			}
			for r := 0; r < alpha.NumRegs-1; r++ {
				if v.CPU().Reg[r] != ref.Reg[r] {
					t.Fatalf("seed %d %s: r%d = %#x, want %#x\nprogram:\n%s",
						seed, cc.name, r, v.CPU().Reg[r], ref.Reg[r], src)
				}
			}
			// Arena memory must match too.
			for off := uint64(0); off < 1024; off += 8 {
				got, _ := v.CPU().Mem.Read64(0x20000 + off)
				want, _ := ref.Mem.Read64(0x20000 + off)
				if got != want {
					t.Fatalf("seed %d %s: arena[%#x] = %#x, want %#x",
						seed, cc.name, off, got, want)
				}
			}
		}
	}
}
