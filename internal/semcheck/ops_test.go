package semcheck_test

import (
	"testing"

	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/tcache"
)

// TestOpCheckAcceptsResolver checks the per-op check against the
// resolver's own output on every corpus fragment: the one-to-one list
// and the fused list both pass, and some ops fuse.
func TestOpCheckAcceptsResolver(t *testing.T) {
	fused := 0
	for _, e := range corpus(t) {
		code := &e.frag.Result
		ops := tcache.ResolveAll(code.Insts)
		if ces := semcheck.CheckOps(code, ops); len(ces) != 0 {
			t.Fatalf("%s: one-to-one list rejected: %v", e.label, ces)
		}
		tcache.Fuse(ops)
		for _, op := range ops {
			if _, _, ok := tcache.Components(op.Code); ok {
				fused++
			}
		}
		if ces := semcheck.CheckOps(code, ops); len(ces) != 0 {
			t.Fatalf("%s: fused list rejected: %v", e.label, ces)
		}
	}
	if fused == 0 {
		t.Fatal("no op of the corpus fused")
	}
}

// opMutation corrupts one op of a resolved list in place, or reports
// that it does not apply there.
type opMutation struct {
	name  string
	apply func(ops []tcache.Op, i int) bool
}

// readsA reports whether the executor reads source A for an unfused
// opcode.
func readsA(code uint8) bool {
	switch code {
	case tcache.XNop, tcache.XPushRAS, tcache.XBranch, tcache.XJumpInd, tcache.XInvalid:
		return false
	}
	return true
}

// writesResult reports whether an unfused opcode writes a result to D
// and E.
func writesResult(code uint8) bool {
	switch code {
	case tcache.XALU, tcache.XAdd, tcache.XSub, tcache.XAnd, tcache.XXor, tcache.XBis,
		tcache.XSrl, tcache.XSll, tcache.XS8Add, tcache.XMove, tcache.XLoad:
		return true
	}
	return false
}

var opMutations = []opMutation{
	{"source-slot", func(ops []tcache.Op, i int) bool {
		// Read a neighbouring GPR instead of source A's.
		op := &ops[i]
		if !readsA(op.Code) || op.A >= tcache.RFAcc || op.A == 31 || op.A == 30 {
			return false
		}
		op.A ^= 1
		return true
	}},
	{"dest-slot", func(ops []tcache.Op, i int) bool {
		// Drop the GPR write into the discard slot.
		op := &ops[i]
		if !writesResult(op.Code) || op.E >= tcache.RFAcc || op.E == op.A || op.E == op.B {
			return false
		}
		op.E = tcache.RFDiscard
		return true
	}},
	{"immediate", func(ops []tcache.Op, i int) bool {
		op := &ops[i]
		switch {
		case readsA(op.Code) && op.A == tcache.RFImmA && op.B != tcache.RFImmB:
			op.Imm[0] ^= 0x10
		case writesResult(op.Code) && op.Code != tcache.XMove && op.B == tcache.RFImmB && op.A != tcache.RFImmA:
			op.Imm[1] ^= 0x10
		default:
			return false
		}
		return true
	}},
	{"opcode", func(ops []tcache.Op, i int) bool {
		op := &ops[i]
		switch {
		case op.Code == tcache.XAdd && op.B != tcache.RFZero && !(op.B == tcache.RFImmB && op.Imm[1] == 0):
			op.Code = tcache.XSub
		case op.Code == tcache.XLoad:
			op.Code = tcache.XMove
		case op.Code == tcache.XCondBranch:
			op.Code = tcache.XNop
		default:
			return false
		}
		return true
	}},
	{"fused-mismatch", func(ops []tcache.Op, i int) bool {
		// A fused add-add whose second op is no add.
		if i+1 >= len(ops) || ops[i].Code != tcache.XAdd || ops[i+1].Code == tcache.XAdd {
			return false
		}
		ops[i].Code = tcache.XAddAdd
		return true
	}},
	{"fused-last", func(ops []tcache.Op, i int) bool {
		// A fused code on the last op, whose second component is past
		// the end.
		if i != len(ops)-1 {
			return false
		}
		ops[i].Code = tcache.XAddAdd
		return true
	}},
}

// TestOpCheckRejectsMutations corrupts one slot, one immediate or one
// opcode in a copy of the resolver's output, at every corpus site where
// the corruption changes what the op computes, and requires the per-op
// check to reject every one, naming that op.
func TestOpCheckRejectsMutations(t *testing.T) {
	entries := corpus(t)
	for _, m := range opMutations {
		t.Run(m.name, func(t *testing.T) {
			applied := 0
			for _, e := range entries {
				code := &e.frag.Result
				clean := tcache.ResolveAll(code.Insts)
				for i := range clean {
					ops := append([]tcache.Op(nil), clean...)
					if !m.apply(ops, i) {
						continue
					}
					applied++
					ces := semcheck.CheckOps(code, ops)
					if len(ces) == 0 {
						t.Fatalf("%s: op #%d %+v (from %+v) accepted", e.label, i, ops[i], clean[i])
					}
					for _, ce := range ces {
						if ce.Kind != semcheck.CEOp || ce.Index != i {
							t.Fatalf("%s: op #%d mutated, counterexample %v at op #%d", e.label, i, ce, ce.Index)
						}
					}
				}
			}
			if applied == 0 {
				t.Fatal("the mutation applied nowhere in the corpus")
			}
			t.Logf("rejected at all %d sites", applied)
		})
	}
}

// TestCheckRunsOpCheck checks that Check, the proof every admission
// runs, includes the per-op check. A conditional branch given an unread
// source B past the I-ISA's registers still proves, since the walk
// never reads that source, but the resolver refuses the register, so
// Check must reject the op.
func TestCheckRunsOpCheck(t *testing.T) {
	for i := range corpus(t) {
		e := &corpus(t)[i]
		for k := range e.frag.Insts {
			if tcache.ExecOp(&e.frag.Insts[k]) != tcache.XCondBranch {
				continue
			}
			sb, err := semcheck.Reconstruct(e.read, &e.frag.Result)
			if err != nil {
				t.Fatal(err)
			}
			code := e.frag.Result
			code.Insts = append([]ildp.Inst(nil), code.Insts...)
			code.Insts[k].SrcB = ildp.GPRSrc(ildp.NumGPR)
			rep := semcheck.Check(sb, &code)
			if len(rep.Counterexamples) != 1 || rep.Counterexamples[0].Kind != semcheck.CEOp {
				t.Fatalf("%s: op #%d refused by the resolver: %v, want one op counterexample", e.label, k, rep)
			}
			return
		}
	}
	t.Fatal("no conditional branch in the corpus")
}
