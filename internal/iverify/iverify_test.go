package iverify_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// spillProg interleaves six three-instruction dependence chains inside a
// hot loop. All six strands are live simultaneously, so the four-entry
// accumulator file must terminate strands early and reload them — the
// spill/reload shapes the D3 rule exists for.
const spillProg = `
	.text 0x10000
start:
	ldiq  s0, 100
	clr   t0
	clr   t1
	clr   t2
	clr   t3
	clr   t4
	clr   t5
spin:
	addq  t0, #1, t0
	addq  t1, #2, t1
	addq  t2, #3, t2
	addq  t3, #4, t3
	addq  t4, #5, t4
	addq  t5, #6, t5
	xor   t0, #7, t0
	xor   t1, #7, t1
	xor   t2, #7, t2
	xor   t3, #7, t3
	xor   t4, #7, t4
	xor   t5, #7, t5
	addq  t0, #1, t0
	addq  t1, #1, t1
	addq  t2, #1, t2
	addq  t3, #1, t3
	addq  t4, #1, t4
	addq  t5, #1, t5
	subq  s0, #1, s0
	bne   s0, spin
	addq  t0, t1, v0
	lda   v0, 1(zero)
	lda   a0, 0(zero)
	call_pal callsys
`

// mixProg exercises the chaining shapes: a jump-table indirect loop
// (jump-target latches and load-ETA stubs), recursion (save-VRA /
// push-dual-ras pairs and ret-dualras), loads, stores, and a conditional
// move.
const mixProg = `
	.data 0x20000
tab:
	.quad 3, 1, 4, 1, 5, 9
res:
	.space 32
	.data 0x20800
jtab:
	.quad jt0, jt1, jt2, jt3

	.text 0x10000
start:
	ldiq  sp, 0x80000
	ldiq  s0, 60
	clr   s2
iloop:
	and   s0, #3, t0
	ldiq  t1, jtab
	s8addq t0, t1, t1
	ldq   t2, 0(t1)
	jmp   (t2)
jt0:
	addq  s2, #1, s2
	br    idone
jt1:
	addq  s2, #2, s2
	br    idone
jt2:
	addq  s2, #3, s2
	br    idone
jt3:
	addq  s2, #5, s2
idone:
	subq  s0, #1, s0
	bne   s0, iloop
	ldiq  t5, res
	stq   s2, 0(t5)
	; max-scan loop with a conditional move, run hot by an outer loop
	ldiq  s3, 8
souter:
	ldiq  a0, tab
	lda   a1, 6(zero)
	clr   v0
	clr   s1
sloop:
	ldq   t0, 0(a0)
	addq  v0, t0, v0
	cmplt s1, t0, t1
	cmovne t1, t0, s1
	lda   a0, 8(a0)
	subq  a1, #1, a1
	bne   a1, sloop
	subq  s3, #1, s3
	bne   s3, souter
	ldiq  t5, res
	stq   v0, 8(t5)
	stq   s1, 16(t5)
	; recursion
	lda   a0, 9(zero)
	bsr   fib
	ldiq  t5, res
	stq   v0, 24(t5)
	lda   v0, 1(zero)
	lda   a0, 0(zero)
	call_pal callsys

fib:
	cmplt a0, #2, t0
	beq   t0, fibrec
	mov   a0, v0
	ret
fibrec:
	stq   ra, -8(sp)
	stq   a0, -16(sp)
	lda   sp, -16(sp)
	subq  a0, #1, a0
	bsr   fib
	ldq   a0, 0(sp)
	stq   v0, 0(sp)
	subq  a0, #2, a0
	bsr   fib
	ldq   t0, 0(sp)
	addq  v0, t0, v0
	lda   sp, 16(sp)
	ldq   ra, -8(sp)
	ret
`

// entry is one harvested fragment plus the configuration it was
// translated under.
type entry struct {
	label string
	frag  *tcache.Fragment
	cfg   iverify.Config // carries the harvesting cache's ResolveFrag
}

var (
	corpusOnce sync.Once
	corpusVal  []entry
	corpusErr  error
)

// corpus harvests translated fragments from real VM runs across both ISA
// forms, all three chain modes, and both accumulator-file sizes: the two
// local programs under the full 12-configuration matrix, plus three
// workloads under the form x chain matrix at the default file size.
func corpus(t testing.TB) []entry {
	corpusOnce.Do(func() { corpusVal, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	if len(corpusVal) == 0 {
		t.Fatal("corpus: no fragments harvested")
	}
	return corpusVal
}

func buildCorpus() ([]entry, error) {
	forms := []ildp.Form{ildp.Basic, ildp.Modified}
	chains := []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS}

	var out []entry
	harvest := func(name string, v *vm.VM, cfg vm.Config) {
		tc := v.TCache()
		resolve := func(id int32) (uint64, bool) {
			f := tc.Frag(id)
			if f == nil {
				return 0, false
			}
			return f.VStart, true
		}
		for id := int32(0); int(id) < tc.Len(); id++ {
			f := tc.Frag(id)
			out = append(out, entry{
				label: fmt.Sprintf("%s/%v/%v/acc%d/frag%d@%#x",
					name, cfg.Form, cfg.Chain, cfg.NumAcc, id, f.VStart),
				frag: f,
				cfg: iverify.Config{
					Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain,
					ResolveFrag: resolve,
				},
			})
		}
	}

	// The local programs: the full 12-configuration matrix. These come
	// first so mutation searches hit the spill-heavy fragments early.
	progs := []struct {
		name, src string
	}{{"spill", spillProg}, {"mix", mixProg}}
	for _, p := range progs {
		for _, form := range forms {
			for _, chain := range chains {
				for _, acc := range []int{ildp.DefaultAccumulators, ildp.MaxAccumulators} {
					cfg := vm.DefaultConfig()
					cfg.Form, cfg.Chain, cfg.NumAcc = form, chain, acc
					cfg.HotThreshold = 5
					v := vm.New(mem.New(), cfg)
					if err := v.LoadProgram(alphaasm.MustAssemble(p.src)); err != nil {
						return nil, fmt.Errorf("%s: %v", p.name, err)
					}
					if err := v.Run(10_000_000); err != nil && !errors.Is(err, vm.ErrBudget) {
						return nil, fmt.Errorf("%s/%v/%v: %v", p.name, form, chain, err)
					}
					if v.TCache().Len() == 0 {
						return nil, fmt.Errorf("%s/%v/%v: no fragments translated", p.name, form, chain)
					}
					harvest(p.name, v, cfg)
				}
			}
		}
	}

	// Workload fragments: translator output over generated code far more
	// varied than the hand-written programs.
	for _, name := range []string{"gzip", "perlbmk", "eon"} {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		prog := spec.MustProgram()
		for _, form := range forms {
			for _, chain := range chains {
				cfg := vm.DefaultConfig()
				cfg.Form, cfg.Chain = form, chain
				cfg.HotThreshold = 10
				v := vm.New(mem.New(), cfg)
				if err := v.LoadProgram(prog); err != nil {
					return nil, fmt.Errorf("%s: %v", name, err)
				}
				if err := v.Run(300_000); err != nil && !errors.Is(err, vm.ErrBudget) {
					return nil, fmt.Errorf("%s/%v/%v: %v", name, form, chain, err)
				}
				harvest(name, v, cfg)
			}
		}
	}
	return out, nil
}

// TestRuleTable pins the verifier's rule taxonomy: 18 rules with unique
// identifiers and a paper reference each (DESIGN.md renders this table).
func TestRuleTable(t *testing.T) {
	rules := iverify.Rules()
	if len(rules) != 18 {
		t.Fatalf("Rules() lists %d rules, want 18", len(rules))
	}
	ids := map[string]bool{}
	names := map[string]bool{}
	for _, r := range rules {
		if ids[r.ID()] || names[r.String()] {
			t.Errorf("rule %v: duplicate id/name %q/%q", r, r.ID(), r.String())
		}
		ids[r.ID()], names[r.String()] = true, true
		if !strings.Contains(r.PaperRef(), "§") {
			t.Errorf("rule %v has no paper reference", r)
		}
	}
	for _, prefix := range []string{"E", "D", "P", "C"} {
		found := false
		for id := range ids {
			if strings.HasPrefix(id, prefix) {
				found = true
			}
		}
		if !found {
			t.Errorf("no rules in group %s", prefix)
		}
	}
}

// TestCorpusClean requires every harvested fragment — across forms, chain
// modes, file sizes, and with fragment links resolved against the cache
// that installed them — to verify without violations.
func TestCorpusClean(t *testing.T) {
	seenForm := map[ildp.Form]bool{}
	seenChain := map[translate.ChainMode]bool{}
	seenAcc := map[int]bool{}
	for _, e := range corpus(t) {
		rep := iverify.Verify(&e.frag.Result, e.cfg)
		if rep.Skipped {
			t.Errorf("%s: unexpectedly skipped", e.label)
			continue
		}
		if !rep.OK() {
			t.Errorf("%s:\n%s", e.label, rep)
		}
		seenForm[e.cfg.Form] = true
		seenChain[e.cfg.Chain] = true
		seenAcc[e.cfg.NumAcc] = true
	}
	if len(seenForm) != 2 || len(seenChain) != 3 || len(seenAcc) != 2 {
		t.Errorf("corpus coverage: forms=%d chains=%d accs=%d, want 2/3/2",
			len(seenForm), len(seenChain), len(seenAcc))
	}
	t.Logf("verified %d fragments clean", len(corpus(t)))
}

// TestMutationsFireExactly proves each rule has teeth: for every targeted
// corruption there is a corpus fragment where applying it makes the
// verifier report that rule — and only that rule. Link checking is
// disabled for the mutated copies (several corruptions fabricate
// instructions whose links have no installed target).
func TestMutationsFireExactly(t *testing.T) {
	entries := corpus(t)
	for _, m := range iverify.Mutations() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, e := range entries {
				c := e.frag.Result
				cfg := e.cfg
				cfg.ResolveFrag = nil
				if !m.Apply(&c, cfg) {
					continue
				}
				rep := iverify.Verify(&c, cfg)
				if rep.OK() {
					t.Fatalf("%s: corruption applied on %s but the report is clean", m.Name, e.label)
				}
				rules := rep.Rules()
				if len(rules) != 1 || rules[0] != m.Rule {
					t.Fatalf("%s on %s: fired %v, want exactly [%v]\n%s",
						m.Name, e.label, rules, m.Rule, rep)
				}
				if !strings.Contains(rep.String(), "["+m.Rule.ID()+" ") {
					t.Fatalf("%s: report does not carry the %s tag:\n%s", m.Name, m.Rule.ID(), rep)
				}
				return
			}
			t.Errorf("%s (%v): no applicable site in a %d-fragment corpus",
				m.Name, m.Rule, len(entries))
		})
	}
}

// TestCorruptionDoesNotLeakIntoCorpus guards the mutation engine itself:
// applying a mutation works on a copy, so re-checking the original
// fragment afterwards must still come out clean.
func TestCorruptionDoesNotLeakIntoCorpus(t *testing.T) {
	entries := corpus(t)
	e := entries[0]
	for _, m := range iverify.Mutations() {
		c := e.frag.Result
		cfg := e.cfg
		cfg.ResolveFrag = nil
		m.Apply(&c, cfg)
	}
	if rep := iverify.Verify(&e.frag.Result, e.cfg); !rep.OK() {
		t.Fatalf("mutations corrupted the underlying fragment:\n%s", rep)
	}
}

// TestVerifySkipsStraightened: straightened fragments carry V-ISA code
// with none of the I-ISA invariants; the verifier must report them
// skipped rather than flooding diagnostics.
func TestVerifySkipsStraightened(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.Straighten = true
	cfg.HotThreshold = 5
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(spillProg)); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(10_000_000); err != nil && !errors.Is(err, vm.ErrBudget) {
		t.Fatal(err)
	}
	tc := v.TCache()
	if tc.Len() == 0 {
		t.Fatal("no straightened fragments translated")
	}
	for id := int32(0); int(id) < tc.Len(); id++ {
		rep := iverify.Verify(&tc.Frag(id).Result, iverify.Config{})
		if !rep.Skipped || !rep.OK() {
			t.Fatalf("straightened fragment %d: skipped=%v ok=%v", id, rep.Skipped, rep.OK())
		}
	}
}

// TestViolationFormat pins the diagnostic format the CLI and the VM's
// paranoid mode print.
func TestViolationFormat(t *testing.T) {
	v := iverify.Violation{Rule: iverify.RuleGPRSources, Index: 12, Detail: "two register sources"}
	got := v.String()
	want := "[E1 gpr-sources §2.2] #12: two register sources"
	if got != want {
		t.Errorf("Violation.String() = %q, want %q", got, want)
	}
	v.Index = -1
	if !strings.Contains(v.String(), "fragment:") {
		t.Errorf("fragment-level violation renders as %q", v.String())
	}
}

// FuzzTranslate feeds arbitrary decodable instruction sequences through
// superblock translation and requires every successful translation to
// verify clean — the translator and the verifier are written against the
// same invariants by construction, so any disagreement is a bug in one of
// them.
func FuzzTranslate(f *testing.F) {
	seed := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		return b
	}
	mustEnc := func(w alpha.Word, err error) uint32 {
		if err != nil {
			f.Fatal(err)
		}
		return uint32(w)
	}
	// A load/add/store/branch loop body.
	f.Add(uint8(0), seed(
		mustEnc(alpha.EncodeMem(alpha.OpLDQ, 1, 2, 0)),
		mustEnc(alpha.EncodeOperateR(alpha.OpADDQ, 0, 1, 0)),
		mustEnc(alpha.EncodeMem(alpha.OpSTQ, 0, 2, 8)),
		mustEnc(alpha.EncodeOperateL(alpha.OpSUBQ, 3, 1, 3)),
		mustEnc(alpha.EncodeBranch(alpha.OpBNE, 3, -5)),
	))
	// A call and an indirect return.
	f.Add(uint8(3), seed(
		mustEnc(alpha.EncodeBranch(alpha.OpBSR, 26, 2)),
		mustEnc(alpha.EncodeOperateR(alpha.OpBIS, 9, 9, 0)),
		mustEnc(alpha.EncodeJump(alpha.OpRET, 31, 26, 0)),
	))
	// A conditional move between two ALU ops.
	f.Add(uint8(5), seed(
		mustEnc(alpha.EncodeOperateL(alpha.OpCMPLT, 4, 10, 5)),
		mustEnc(alpha.EncodeOperateR(alpha.OpCMOVNE, 5, 6, 4)),
		mustEnc(alpha.EncodeOperateR(alpha.OpXOR, 4, 7, 4)),
	))

	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		form := ildp.Basic
		if sel&1 != 0 {
			form = ildp.Modified
		}
		chain := translate.ChainMode((sel >> 1) % 3)
		numAcc := ildp.DefaultAccumulators
		if sel&8 != 0 {
			numAcc = ildp.MaxAccumulators
		}

		const base = uint64(0x10000)
		sb := &translate.Superblock{StartPC: base, End: translate.EndMaxSize}
		pc := base
		for i := 0; i+4 <= len(data) && len(sb.Insts) < 64; i += 4 {
			w := alpha.Word(uint32(data[i]) | uint32(data[i+1])<<8 |
				uint32(data[i+2])<<16 | uint32(data[i+3])<<24)
			inst := alpha.Decode(w)
			if inst.Op == alpha.OpInvalid || inst.Op == alpha.OpUnsupported ||
				inst.Op == alpha.OpCallPAL {
				break
			}
			rec := translate.SBInst{PC: pc, Inst: inst}
			if inst.IsCondBranch() {
				rec.Taken = inst.Ra&1 != 0
			}
			if inst.IsIndirect() {
				rec.PredTarget = base + 0x400
			}
			sb.Insts = append(sb.Insts, rec)
			pc += alpha.InstBytes
			if inst.IsIndirect() {
				sb.End = translate.EndIndirect
				break
			}
		}
		if len(sb.Insts) == 0 {
			return
		}
		sb.NextPC = pc

		tcfg := translate.Config{Form: form, NumAcc: numAcc, Chain: chain}
		res, err := translate.Translate(sb, tcfg)
		if err != nil {
			return // untranslatable input is the interpreter's problem
		}
		rep := iverify.Verify(res, iverify.Config{Form: form, NumAcc: numAcc, Chain: chain})
		if !rep.OK() {
			t.Fatalf("translation of %d V-instructions fails verification (%v/%v/%d accs):\n%s",
				len(sb.Insts), form, chain, numAcc, rep)
		}
	})
}

// BenchmarkVerify measures verification throughput over the harvested
// corpus (the cost the VM's paranoid mode adds per translation).
func BenchmarkVerify(b *testing.B) {
	entries := corpus(b)
	insts := 0
	for _, e := range entries {
		insts += len(e.frag.Insts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			rep := iverify.Verify(&e.frag.Result, e.cfg)
			if !rep.OK() {
				b.Fatal(rep)
			}
		}
	}
	b.ReportMetric(float64(len(entries)*b.N)/b.Elapsed().Seconds(), "frags/s")
	b.ReportMetric(float64(insts*b.N)/b.Elapsed().Seconds(), "insts/s")
}
