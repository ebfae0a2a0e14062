package tcache

import (
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
)

// inlinedOps are the ALU ops the executor runs without emu.EvalOp, with
// their opcodes.
var inlinedOps = map[alpha.Op]uint8{
	alpha.OpLDA: XAdd, alpha.OpADDQ: XAdd, alpha.OpSUBQ: XSub,
	alpha.OpAND: XAnd, alpha.OpXOR: XXor, alpha.OpBIS: XBis,
	alpha.OpSRL: XSrl, alpha.OpSLL: XSll, alpha.OpS8ADDQ: XS8Add,
}

// TestExecOpTable checks that every I-ISA kind has an executable
// opcode, that each patch pair shares one, and that exactly the inlined
// ALU ops leave the emu.EvalOp fallback.
func TestExecOpTable(t *testing.T) {
	op := func(k ildp.Kind) uint8 { return ExecOp(&ildp.Inst{Kind: k, Op: alpha.OpADDL}) }
	if got := op(ildp.KindInvalid); got != XInvalid {
		t.Errorf("invalid kind: opcode %d, want XInvalid", got)
	}
	if got := op(ildp.KindDispatchOp + 1); got != XInvalid {
		t.Errorf("kind past the last: opcode %d, want XInvalid", got)
	}
	for k := ildp.KindInvalid + 1; k <= ildp.KindDispatchOp; k++ {
		if op(k) == XInvalid {
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
			want = XALU
		}
		if got := ExecOp(&ildp.Inst{Kind: ildp.KindALU, Op: o}); got != want {
			t.Errorf("ALU op %v: opcode %d, want %d", o, got, want)
		}
	}
	if alu <= len(inlinedOps) {
		t.Fatalf("found %d ALU ops, fewer than the inlined ones", alu)
	}
}

// TestFusionTable checks the fusion table's shape: every fused opcode
// has two base components and is the table's entry for them, no first
// component can leave the visit, and no pair is listed twice.
func TestFusionTable(t *testing.T) {
	mayLeave := map[uint8]bool{
		XInvalid: true, XCondBranch: true, XBranch: true, XJumpRet: true, XJumpInd: true,
	}
	for code := numBaseCodes; code < numCodes; code++ {
		first, second, ok := Components(code)
		if !ok || first >= numBaseCodes || second >= numBaseCodes {
			t.Fatalf("fused opcode %d: components %d, %d (ok %v), want two base opcodes", code, first, second, ok)
		}
		if mayLeave[first] {
			t.Errorf("fused opcode %d: first component %d can leave the visit", code, first)
		}
		if got, ok := fusedCode(first, second); !ok || got != code {
			t.Errorf("pair (%d, %d): table entry %d (ok %v), want %d", first, second, got, ok, code)
		}
	}
	pairs := 0
	for a := uint8(0); a < numCodes; a++ {
		for b := uint8(0); b < numCodes; b++ {
			if _, ok := fusedCode(a, b); ok {
				pairs++
			}
		}
	}
	if want := int(numCodes - numBaseCodes); pairs != want {
		t.Errorf("%d table entries, want one per fused opcode (%d)", pairs, want)
	}
	for code := uint8(0); code < numBaseCodes; code++ {
		if _, _, ok := Components(code); ok {
			t.Errorf("base opcode %d has components", code)
		}
	}
}

// TestFuse checks Fuse's pairing: greedy from the left, operands and
// second components untouched, and no pair across an op that ends one.
func TestFuse(t *testing.T) {
	mk := func(codes ...uint8) []Op {
		ops := make([]Op, len(codes))
		for i, c := range codes {
			ops[i] = Op{Code: c, A: uint8(i), B: uint8(i + 1), D: RFDiscard, E: uint8(i + 2), Imm: [2]uint64{uint64(i), 7}}
		}
		return ops
	}
	for _, tc := range []struct {
		in, want []uint8
	}{
		{[]uint8{XAdd, XAdd, XAdd}, []uint8{XAddAdd, XAdd, XAdd}},
		{[]uint8{XAdd, XAdd, XAdd, XAdd}, []uint8{XAddAdd, XAdd, XAddAdd, XAdd}},
		{[]uint8{XAdd, XLoad, XAdd}, []uint8{XAddLoad, XLoad, XAdd}},
		{[]uint8{XNop, XSub, XCondBranch, XAdd, XAdd}, []uint8{XNop, XSubCondBranch, XCondBranch, XAddAdd, XAdd}},
		{[]uint8{XCondBranch, XAdd}, []uint8{XCondBranch, XAdd}},
		{[]uint8{XAdd}, []uint8{XAdd}},
		{nil, nil},
	} {
		ops := mk(tc.in...)
		want := mk(tc.in...)
		for i, c := range tc.want {
			want[i].Code = c
		}
		Fuse(ops)
		for i := range ops {
			if ops[i] != want[i] {
				t.Errorf("Fuse(%v) op %d = %+v, want %+v", tc.in, i, ops[i], want[i])
			}
		}
	}
}
