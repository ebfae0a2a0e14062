package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// lintInstalled re-verifies every fragment in the VM's translation cache
// with links resolved against the cache — the state the executor actually
// runs, including exits the patcher has since rewritten into direct
// branches.
func lintInstalled(t *testing.T, label string, v *VM) int {
	t.Helper()
	tc := v.TCache()
	cfg := iverify.Config{
		Form: v.cfg.Form, NumAcc: v.cfg.NumAcc, Chain: v.cfg.Chain,
		ResolveFrag: func(id int32) (uint64, bool) {
			f := tc.Frag(id)
			if f == nil {
				return 0, false
			}
			return f.VStart, true
		},
	}
	n := 0
	for id := int32(0); int(id) < tc.Len(); id++ {
		rep := iverify.Verify(&tc.Frag(id).Result, cfg)
		if !rep.OK() {
			t.Errorf("%s: installed fragment %d:\n%s", label, id, rep)
		}
		if !rep.Skipped {
			n++
		}
	}
	return n
}

// TestVerifySweepAllWorkloads runs every workload under every ISA form,
// chain mode, and accumulator-file size with the paranoid verifier
// enabled: 12 x 2 x 3 x 2 = 144 configurations. The VM aborts the run if
// any freshly translated fragment fails verification; afterwards the
// whole installed cache is linted again with links resolved. -short keeps
// one workload per letter bucket to stay fast.
func TestVerifySweepAllWorkloads(t *testing.T) {
	names := workload.Names()
	if len(names) != 12 {
		t.Fatalf("expected the paper's 12 workloads, have %d", len(names))
	}
	if testing.Short() {
		names = []string{"gzip", "mcf", "perlbmk"}
	}
	forms := []ildp.Form{ildp.Basic, ildp.Modified}
	chains := []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS}
	accs := []int{ildp.DefaultAccumulators, ildp.MaxAccumulators}

	for _, name := range names {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.MustProgram()
		for _, form := range forms {
			for _, chain := range chains {
				for _, acc := range accs {
					label := fmt.Sprintf("%s/%v/%v/acc%d", name, form, chain, acc)
					t.Run(label, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Form, cfg.Chain, cfg.NumAcc = form, chain, acc
						cfg.HotThreshold = 10
						cfg.Verify = true
						v := New(mem.New(), cfg)
						if err := v.LoadProgram(prog); err != nil {
							t.Fatal(err)
						}
						if err := v.Run(150_000); err != nil && !errors.Is(err, ErrBudget) {
							t.Fatalf("run aborted: %v", err)
						}
						if v.Stats.Fragments == 0 {
							t.Fatal("no fragments were translated")
						}
						if v.Stats.FragsVerified != v.Stats.Fragments {
							t.Errorf("verified %d of %d fragments",
								v.Stats.FragsVerified, v.Stats.Fragments)
						}
						lintInstalled(t, label, v)
					})
				}
			}
		}
	}
}

// TestVerifyTortureEquivalence checks the paranoid mode is not just
// silent but harmless: with Verify on, the torture program still runs to
// the same architected state.
func TestVerifyTortureEquivalence(t *testing.T) {
	ref := refRun(t, torture)
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	cfg.Verify = true
	v := vmRun(t, torture, cfg)
	compareState(t, "verify-on", ref, v, resultsAddrs())
	if v.Stats.FragsVerified != v.Stats.Fragments {
		t.Errorf("verified %d of %d fragments", v.Stats.FragsVerified, v.Stats.Fragments)
	}
}

// TestVerifyAfterEviction forces constant cache flushing, so the same
// superblocks are re-translated many times over; every re-translation
// must verify, and the surviving cache generation must lint clean with
// its links resolved.
func TestVerifyAfterEviction(t *testing.T) {
	ref := refRun(t, torture)
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	cfg.TCacheBytes = 512
	cfg.Verify = true
	v := vmRun(t, torture, cfg)
	compareState(t, "evict-verify", ref, v, resultsAddrs())
	if v.TCache().Flushes == 0 {
		t.Fatal("cache never flushed; eviction path untested")
	}
	if v.Stats.FragsVerified != v.Stats.Fragments {
		t.Errorf("verified %d of %d fragments (including re-translations)",
			v.Stats.FragsVerified, v.Stats.Fragments)
	}
	if n := lintInstalled(t, "evict-verify", v); n == 0 {
		t.Error("final cache generation is empty")
	}
}

// TestVerifyRejectsCorruptInstall proves the paranoid mode actually stops
// the VM: a fragment corrupted between translation and install must abort
// the run with the verifier's diagnostic.
func TestVerifyRejectsCorruptInstall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	cfg.Verify = true
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	v.testMutateResult = func(res *translate.Result) {
		if len(res.PEI) > 0 {
			res.PEI = res.PEI[:len(res.PEI)-1]
		}
	}
	err := v.Run(50_000_000)
	if err == nil {
		t.Fatal("corrupted translation installed without complaint")
	}
	if want := "fragment verification failed"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	if !strings.Contains(err.Error(), "[P1 pei-table") {
		t.Fatalf("diagnostic lacks the P1 tag:\n%v", err)
	}
}
