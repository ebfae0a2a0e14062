package iverify_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/translate"
)

// TestAdmit pins the admission rule: the structural rules first, unless
// the code is straightened, then the proof, with the first rejection
// named by its checker and the proof not run after the rules reject.
func TestAdmit(t *testing.T) {
	sb := &translate.Superblock{
		StartPC: 0x10000,
		Insts: []translate.SBInst{
			{PC: 0x10000, Inst: alpha.Inst{Format: alpha.FormatOperate,
				Op: alpha.OpADDQ, Ra: 16, Rc: 3, UseLit: true, Lit: 1}},
			{PC: 0x10004, Inst: alpha.Inst{Format: alpha.FormatOperate,
				Op: alpha.OpSUBQ, Ra: 3, Rb: 17, Rc: 4}},
		},
		End:    translate.EndMaxSize,
		NextPC: 0x10008,
	}
	cfg := iverify.Config{Form: ildp.Modified, NumAcc: ildp.DefaultAccumulators, Chain: translate.SWPredRAS}
	accumulator := func() *translate.Result {
		res, err := translate.Translate(sb, translate.Config{Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	straightened := func() *translate.Result {
		res, err := translate.Straighten(sb, cfg.Chain)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// nudge turns the superblock's ADDQ literal from 1 into 2, a change
	// only the proof can see.
	nudge := func(res *translate.Result) *translate.Result {
		for i := range res.Insts {
			if in := &res.Insts[i]; in.Op == alpha.OpADDQ && in.SrcB.Kind == ildp.SrcImm {
				in.SrcB.Imm++
				return res
			}
		}
		t.Fatal("no ADDQ literal to nudge")
		return nil
	}
	sizeSkew := func(res *translate.Result) *translate.Result {
		res.CodeBytes += 2 // E5
		return res
	}
	both := iverify.CheckRules | iverify.CheckProof

	cases := []struct {
		name         string
		res          *translate.Result
		want         iverify.Checks
		rules, proof bool // which reports Admit returns
		skipped      bool
		rejectedBy   iverify.Checks
		errPrefix    string
	}{
		{"clean", accumulator(), both, true, true, false, 0, ""},
		{"rules only", accumulator(), iverify.CheckRules, true, false, false, 0, ""},
		{"nothing asked", nudge(accumulator()), 0, false, false, false, 0, ""},
		{"structural violation", sizeSkew(accumulator()), both, true, false, false,
			iverify.CheckRules, "fragment verification failed:\n"},
		{"semantic corruption", nudge(accumulator()), both, true, true, false,
			iverify.CheckProof, "fragment equivalence proof failed:\n"},
		{"straightened clean", straightened(), both, true, true, true, 0, ""},
		{"straightened corruption", nudge(straightened()), both, true, true, true,
			iverify.CheckProof, "fragment equivalence proof failed:\n"},
	}
	for _, c := range cases {
		adm, err := iverify.Admit(c.res, sb, cfg, c.want)
		if (adm.Rules != nil) != c.rules || (adm.Proof != nil) != c.proof {
			t.Errorf("%s: rules report %v, proof report %v; want %v, %v",
				c.name, adm.Rules != nil, adm.Proof != nil, c.rules, c.proof)
		}
		if adm.Rules != nil && adm.Rules.Skipped != c.skipped {
			t.Errorf("%s: rules skipped = %v, want %v", c.name, adm.Rules.Skipped, c.skipped)
		}
		var rej *iverify.RejectError
		switch {
		case c.rejectedBy == 0 && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.rejectedBy == 0:
		case !errors.As(err, &rej):
			t.Errorf("%s: error %v, want a *RejectError", c.name, err)
		case rej.By != c.rejectedBy || !strings.HasPrefix(err.Error(), c.errPrefix):
			t.Errorf("%s: rejected by %v with %q, want %v with prefix %q",
				c.name, rej.By, err, c.rejectedBy, c.errPrefix)
		}
	}
}
