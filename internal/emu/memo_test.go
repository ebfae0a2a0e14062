package emu

import (
	"fmt"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/mem"
)

// TestSelfModifyingCode runs a loop that overwrites one of its own,
// already executed and memoised, instructions and then executes it
// again: every later iteration must run the new word.
func TestSelfModifyingCode(t *testing.T) {
	patched, err := alpha.EncodeOperateL(alpha.OpADDQ, alpha.RegV0, 100, alpha.RegV0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := run(t, fmt.Sprintf(`
	.text 0x10000
start:
	ldiq a0, patch
	ldiq t1, %d
	lda  t2, 3(zero)
	clr  v0
loop:
patch:
	addq v0, #1, v0
	stl  t1, 0(a0)
	subq t2, #1, t2
	bne  t2, loop
	call_pal halt
`, uint32(patched)), 1000)
	if got := cpu.Reg[alpha.RegV0]; got != 1+100+100 {
		t.Fatalf("v0 = %d, want 201 (one original addq, then two patched)", got)
	}
}

// TestMemoSlotCollision executes two different words MemoSlots*4
// bytes apart, which share a memo slot, alternately: each refill evicts
// the other, and both must still execute as themselves.
func TestMemoSlotCollision(t *testing.T) {
	const first, second = 0x10100, 0x10100 + MemoSlots*4
	if MemoIndex(first) != MemoIndex(second) {
		t.Fatalf("MemoIndex(%#x) = %d, MemoIndex(%#x) = %d; want one slot",
			first, MemoIndex(first), second, MemoIndex(second))
	}
	const iters = 50
	cpu := New(mem.New())
	if err := cpu.LoadProgram(alphaasm.MustAssemble(fmt.Sprintf(`
	.text 0x10000
start:
	lda  t2, %d(zero)
	clr  v0
	clr  t3
	br   first
	.org %#x
first:
	addq v0, #1, v0
	br   second
back:
	subq t2, #1, t2
	bne  t2, first
	call_pal halt
	.org %#x
second:
	addq t3, #2, t3
	br   back
`, iters, first, second))); err != nil {
		t.Fatal(err)
	}
	words := map[uint64]uint32{}
	for _, pc := range []uint64{first, second} {
		w, err := cpu.Mem.Read32(pc)
		if err != nil {
			t.Fatal(err)
		}
		words[pc] = w
	}
	if words[first] == words[second] {
		t.Fatal("the two colliding words are equal")
	}
	visits := 0
	for !cpu.Halted && cpu.InstCount < 10*iters {
		pc := cpu.PC
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
		if w, ok := words[pc]; ok {
			visits++
			if got := uint32(cpu.memo[MemoIndex(pc)].Raw); got != w {
				t.Fatalf("visit %d at %#x: slot holds %#x, want %#x", visits, pc, got, w)
			}
		}
	}
	if !cpu.Halted || visits != 2*iters {
		t.Fatalf("halted %v after %d visits to the colliding words, want %d", cpu.Halted, visits, 2*iters)
	}
	if got := cpu.Reg[alpha.RegV0]; got != iters {
		t.Errorf("v0 = %d, want %d", got, iters)
	}
	if got := cpu.Reg[alpha.RegT0+3]; got != 2*iters {
		t.Errorf("t3 = %d, want %d", got, 2*iters)
	}
}

// TestWarmStepAllocs pins interpretation as heap-free once the loop's
// pages are mapped and its instructions memoised.
func TestWarmStepAllocs(t *testing.T) {
	cpu := New(mem.New())
	if err := cpu.LoadProgram(alphaasm.MustAssemble(`
	.data 0x20000
cell:
	.quad 0
	.text 0x10000
start:
	ldiq a0, cell
loop:
	ldq    t0, 0(a0)
	addq   t0, #1, t0
	stq    t0, 0(a0)
	cmovne t0, t0, t1
	ldbu   t2, 3(a0)
	beq    t2, loop
	br     loop
`)); err != nil {
		t.Fatal(err)
	}
	steps := func() {
		for i := 0; i < 100; i++ {
			if err := cpu.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps()
	if allocs := testing.AllocsPerRun(100, steps); allocs != 0 {
		t.Errorf("warm Step loop allocates %v times per 100 steps", allocs)
	}
	if cpu.Reg[alpha.RegT0+1] == 0 {
		t.Error("the loop did not run")
	}
}
