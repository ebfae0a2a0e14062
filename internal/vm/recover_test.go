package vm

import (
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

func TestCorruptFragmentAlwaysChanges(t *testing.T) {
	in := faultinject.New(faultinject.Config{Seed: 3})
	for trial := 0; trial < 200; trial++ {
		f := &tcache.Fragment{Result: translate.Result{
			Insts: []ildp.Inst{
				{Kind: ildp.KindSetVPC, VAddr: 0x1000},
				{Kind: ildp.KindALU, VAddr: 0x1004, Disp: 8, VPC: 0x1004},
				{Kind: ildp.KindBranch, VAddr: 0x1008, VPC: 0x1008},
			},
			PEI: []uint64{0x1004},
		}}
		before := append([]ildp.Inst(nil), f.Insts...)
		beforePEI := append([]uint64(nil), f.PEI...)
		if !corruptFragment(in, f) {
			t.Fatalf("trial %d: corruptFragment declined a corruptible fragment", trial)
		}
		changed := len(f.PEI) != len(beforePEI)
		for i := range beforePEI {
			if f.PEI[i] != beforePEI[i] {
				changed = true
			}
		}
		for i := range before {
			if f.Insts[i] != before[i] {
				changed = true
			}
		}
		if !changed {
			t.Fatalf("trial %d: corruptFragment reported a change but nothing differs", trial)
		}
	}
}

func TestCorruptResultSkipsStraightened(t *testing.T) {
	in := faultinject.New(faultinject.Config{Seed: 3})
	res := &translate.Result{Straightened: true,
		Insts: []ildp.Inst{{Kind: ildp.KindALU}}}
	if corruptResult(in, res) {
		t.Error("corruptResult poisoned a straightened fragment the verifier cannot reject")
	}
}

// peiPoint is the executor's PEI-point predicate, under the name the
// tests' fragment walks use.
func peiPoint(in *ildp.Inst) bool { return in.IsPEI() }
