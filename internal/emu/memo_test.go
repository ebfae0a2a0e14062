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

// TestMemoSlotCollision executes two distinct words that share a memo
// slot alternately: each refill evicts the other, and both must still
// execute as themselves.
func TestMemoSlotCollision(t *testing.T) {
	w1, err := alpha.EncodeOperateL(alpha.OpADDQ, alpha.RegV0, 1, alpha.RegV0)
	if err != nil {
		t.Fatal(err)
	}
	var w2 alpha.Word
	var rc alpha.Reg
	var lit uint8
search:
	for _, rc = range []alpha.Reg{4, 5, 6, 7, 8} { // t3..t7
		for l := 2; l < 256; l++ {
			w, err := alpha.EncodeOperateL(alpha.OpADDQ, rc, uint8(l), rc)
			if err != nil {
				t.Fatal(err)
			}
			if MemoIndex(uint32(w)) == MemoIndex(uint32(w1)) {
				w2, lit = w, uint8(l)
				break search
			}
		}
	}
	if w2 == 0 {
		t.Fatal("no colliding word found")
	}
	const iters = 50
	cpu := run(t, fmt.Sprintf(`
	.text 0x10000
start:
	lda  t2, %d(zero)
	clr  v0
	clr  %s
loop:
	addq v0, #1, v0
	addq %s, #%d, %s
	subq t2, #1, t2
	bne  t2, loop
	call_pal halt
`, iters, rc, rc, lit, rc), 1000)
	if got := cpu.Reg[alpha.RegV0]; got != iters {
		t.Errorf("v0 = %d, want %d", got, iters)
	}
	if got, want := cpu.Reg[rc], uint64(iters)*uint64(lit); got != want {
		t.Errorf("%v = %d, want %d", rc, got, want)
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
