package semcheck_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// pressureProg keeps seven dependence chains live in a hot loop so the
// four-entry accumulator file spills and reloads (scratch-register term
// flow), and closes with stores whose values the prover must track
// through the whole loop body.
const pressureProg = `
	.text 0x10000
start:
	ldiq  s0, 80
	clr   t0
	clr   t1
	clr   t2
	clr   t3
	clr   t4
	clr   t5
	clr   t6
loop:
	addq  t0, #1, t0
	addq  t1, #2, t1
	addq  t2, #3, t2
	addq  t3, #4, t3
	addq  t4, #5, t4
	addq  t5, #6, t5
	addq  t6, #7, t6
	xor   t0, #15, t0
	xor   t1, #15, t1
	xor   t2, #15, t2
	xor   t3, #15, t3
	xor   t4, #15, t4
	xor   t5, #15, t5
	xor   t6, #15, t6
	subq  s0, #1, s0
	bne   s0, loop
	addq  t0, t1, v0
	addq  t2, t3, t0
	addq  v0, t0, v0
	ldiq  t5, 0x20000
	stq   v0, 0(t5)
	lda   v0, 1(zero)
	lda   a0, 0(zero)
	call_pal callsys
`

// controlProg exercises every chaining shape the prover models: a
// jump-table indirect (latch + load-ETA compare), recursion (save-VRA,
// RAS return), loads, stores, and conditional moves.
const controlProg = `
	.data 0x20000
vals:
	.quad 2, 7, 1, 8, 2, 8
out:
	.space 40
	.data 0x20800
jtab:
	.quad c0, c1, c2, c3

	.text 0x10000
start:
	ldiq  sp, 0x80000
	ldiq  s0, 48
	clr   s2
jloop:
	and   s0, #3, t0
	ldiq  t1, jtab
	s8addq t0, t1, t1
	ldq   t2, 0(t1)
	jmp   (t2)
c0:
	addq  s2, #1, s2
	br    jnext
c1:
	addq  s2, #3, s2
	br    jnext
c2:
	subq  s2, #1, s2
	br    jnext
c3:
	addq  s2, #7, s2
jnext:
	subq  s0, #1, s0
	bne   s0, jloop
	ldiq  t5, out
	stq   s2, 0(t5)
	ldiq  s3, 9
mouter:
	ldiq  a0, vals
	lda   a1, 6(zero)
	clr   v0
	clr   s1
mloop:
	ldq   t0, 0(a0)
	addq  v0, t0, v0
	cmplt s1, t0, t1
	cmovne t1, t0, s1
	lda   a0, 8(a0)
	subq  a1, #1, a1
	bne   a1, mloop
	subq  s3, #1, s3
	bne   s3, mouter
	ldiq  t5, out
	stq   v0, 8(t5)
	stq   s1, 16(t5)
	lda   a0, 7(zero)
	bsr   sum
	ldiq  t5, out
	stq   v0, 24(t5)
	lda   v0, 1(zero)
	lda   a0, 0(zero)
	call_pal callsys

sum:
	cmplt a0, #2, t0
	beq   t0, sumrec
	mov   a0, v0
	ret
sumrec:
	stq   ra, -8(sp)
	stq   a0, -16(sp)
	lda   sp, -16(sp)
	subq  a0, #1, a0
	bsr   sum
	ldq   a0, 0(sp)
	addq  v0, a0, v0
	lda   sp, 16(sp)
	ldq   ra, -8(sp)
	ret
`

// entry is one harvested fragment plus the memory image it was
// translated from (for source-superblock reconstruction) and the
// structural-verifier configuration (for the semantic mutations).
type entry struct {
	label string
	frag  *tcache.Fragment
	m     *mem.Memory
	vcfg  iverify.Config
}

func (e *entry) read(addr uint64) (alpha.Word, error) {
	w, err := e.m.Read32(addr)
	return alpha.Word(w), err
}

var (
	corpusOnce sync.Once
	corpusVal  []entry
	corpusErr  error
)

// corpus harvests fragments from real VM runs of the two local programs
// across both ISA forms, all three chain modes, and both accumulator
// file sizes, plus three generated workloads, keeping each run's memory
// image so its superblocks can be reconstructed.
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
	harvest := func(name string, m *mem.Memory, v *vm.VM, cfg vm.Config) {
		tc := v.TCache()
		for id := int32(0); int(id) < tc.Len(); id++ {
			f := tc.Frag(id)
			out = append(out, entry{
				label: fmt.Sprintf("%s/%v/%v/acc%d/frag%d@%#x",
					name, cfg.Form, cfg.Chain, cfg.NumAcc, id, f.VStart),
				frag: f, m: m,
				vcfg: iverify.Config{Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain},
			})
		}
	}

	progs := []struct {
		name, src string
	}{{"pressure", pressureProg}, {"control", controlProg}}
	for _, p := range progs {
		for _, form := range forms {
			for _, chain := range chains {
				for _, acc := range []int{ildp.DefaultAccumulators, ildp.MaxAccumulators} {
					cfg := vm.DefaultConfig()
					cfg.Form, cfg.Chain, cfg.NumAcc = form, chain, acc
					cfg.HotThreshold = 5
					m := mem.New()
					v := vm.New(m, cfg)
					if err := v.LoadProgram(alphaasm.MustAssemble(p.src)); err != nil {
						return nil, fmt.Errorf("%s: %v", p.name, err)
					}
					if err := v.Run(10_000_000); err != nil && !errors.Is(err, vm.ErrBudget) {
						return nil, fmt.Errorf("%s/%v/%v: %v", p.name, form, chain, err)
					}
					if v.TCache().Len() == 0 {
						return nil, fmt.Errorf("%s/%v/%v: no fragments translated", p.name, form, chain)
					}
					harvest(p.name, m, v, cfg)
				}
			}
		}
	}

	for _, name := range []string{"gzip", "mcf", "vortex"} {
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
				m := mem.New()
				v := vm.New(m, cfg)
				if err := v.LoadProgram(prog); err != nil {
					return nil, fmt.Errorf("%s: %v", name, err)
				}
				if err := v.Run(300_000); err != nil && !errors.Is(err, vm.ErrBudget) {
					return nil, fmt.Errorf("%s/%v/%v: %v", name, form, chain, err)
				}
				harvest(name, m, v, cfg)
			}
		}
	}
	return out, nil
}

// TestReconstructAndProve closes the full static loop with no help from
// the translator: each installed fragment's source superblock is
// reconstructed by decoding guest memory, then the fragment is proved
// equivalent to the reconstruction.
func TestReconstructAndProve(t *testing.T) {
	exits, finals := 0, 0
	for i := range corpus(t) {
		e := &corpus(t)[i]
		code := &e.frag.Result
		sb, err := semcheck.Reconstruct(e.read, code)
		if err != nil {
			t.Errorf("%s: %v", e.label, err)
			continue
		}
		if sb.StartPC != e.frag.VStart {
			t.Errorf("%s: reconstructed start %#x, want %#x", e.label, sb.StartPC, e.frag.VStart)
		}
		rep := semcheck.Check(sb, code)
		if !rep.OK() {
			t.Errorf("%s:\n%s", e.label, rep)
		}
		exits += rep.Exits
		finals += rep.Finals
	}
	if exits == 0 || finals == 0 {
		t.Fatalf("no obligations discharged (%d exits, %d finals)", exits, finals)
	}
	t.Logf("%d fragments proved (%d side exits, %d finals)", len(corpus(t)), exits, finals)
}

// TestWorkloadsProveAll proves every fragment of every workload at the
// experiment scale, in the paper's three machine configurations, by
// running with the in-VM prover enabled: a single counterexample fails
// the run. This is the PR's headline claim — 100% of translations
// proved, zero counterexamples.
func TestWorkloadsProveAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload proving in -short mode")
	}
	type machine struct {
		name       string
		form       ildp.Form
		straighten bool
	}
	machines := []machine{
		{"modified", ildp.Modified, false},
		{"basic", ildp.Basic, false},
		{"straightened", ildp.Modified, true},
	}
	total := 0
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.MustProgram()
		for _, mc := range machines {
			cfg := vm.DefaultConfig()
			cfg.Form = mc.form
			cfg.Straighten = mc.straighten
			cfg.SemCheck = true
			cfg.HotThreshold = 50
			v := vm.New(mem.New(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(0); err != nil {
				t.Fatalf("%s/%s: %v", name, mc.name, err)
			}
			if v.Stats.FragsProved != v.Stats.Fragments {
				t.Errorf("%s/%s: %d fragments, only %d proved",
					name, mc.name, v.Stats.Fragments, v.Stats.FragsProved)
			}
			total += v.Stats.FragsProved
		}
	}
	if total == 0 {
		t.Fatal("no fragments proved across the workload suite")
	}
	t.Logf("proved %d fragments across %d workloads x %d machines",
		total, len(workload.Names()), len(machines))
}

// TestSemanticMutationsRejected pins the prover's reason to exist: each
// semantic-only corruption — accepted by all 18 structural verifier
// rules — must be rejected by the equivalence proof, every time it
// applies, with a counterexample naming real diverging terms.
func TestSemanticMutationsRejected(t *testing.T) {
	entries := corpus(t)
	for _, m := range iverify.SemanticMutations() {
		t.Run(m.Name, func(t *testing.T) {
			applied := 0
			for i := range entries {
				e := &entries[i]
				code := e.frag.Result
				if code.Straightened {
					continue // the structural verifier has no straightened rules
				}
				if !m.Apply(&code, e.vcfg) {
					continue
				}
				applied++
				// The mutation is self-verifying: the structural rules
				// still accept. Re-check to keep that honest.
				if rep := iverify.Verify(&code, e.vcfg); !rep.OK() {
					t.Fatalf("%s: mutation is not structurally invisible:\n%s", e.label, rep)
				}
				sb, err := semcheck.Reconstruct(e.read, &e.frag.Result)
				if err != nil {
					t.Fatalf("%s: %v", e.label, err)
				}
				rep := semcheck.Check(sb, &code)
				if rep.OK() {
					t.Errorf("%s: prover accepted the %s corruption", e.label, m.Name)
				}
			}
			if applied == 0 {
				t.Fatalf("mutation %s found no applicable site in %d fragments",
					m.Name, len(entries))
			}
			t.Logf("%s: rejected at all %d sites", m.Name, applied)
		})
	}
}

// TestCounterexampleRendering pins the report format end to end: a
// literal nudged from 1 to 2 in a two-instruction superblock must
// produce exactly one register counterexample naming both term trees.
func TestCounterexampleRendering(t *testing.T) {
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
	res, err := translate.Translate(sb, translate.Config{
		Form: ildp.Modified, NumAcc: ildp.DefaultAccumulators, Chain: translate.SWPredRAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := semcheck.Check(sb, res); !rep.OK() {
		t.Fatalf("pristine translation did not prove:\n%s", rep)
	}

	for i := range res.Insts {
		inst := &res.Insts[i]
		if inst.Kind == ildp.KindALU && inst.Op == alpha.OpADDQ &&
			inst.SrcB.Kind == ildp.SrcImm && inst.SrcB.Imm == 1 {
			inst.SrcB.Imm = 2
			break
		}
	}
	rep := semcheck.Check(sb, res)
	if rep.OK() {
		t.Fatal("prover accepted the corrupted literal")
	}

	var lines []string
	for _, ce := range rep.Counterexamples {
		lines = append(lines, ce.String())
	}
	got := strings.Join(lines, "\n")
	want := "[reg r3 @ direct continuation to 0x10008] " +
		"alpha: (addq r16 #0x1) != frag: (addq r16 #0x2)\n" +
		"[reg r4 @ direct continuation to 0x10008] " +
		"alpha: (subq (addq r16 #0x1) r17) != frag: (subq (addq r16 #0x2) r17)"
	if got != want {
		t.Errorf("counterexample rendering drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(rep.String(), "counterexample") {
		t.Errorf("report summary does not count counterexamples:\n%s", rep)
	}
}

// FuzzSemCheck drives decoded instruction soup through the translator
// and requires every successful translation to prove equivalent to its
// superblock: any counterexample is a translator or prover bug.
func FuzzSemCheck(f *testing.F) {
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
	f.Add(uint8(0), seed(
		mustEnc(alpha.EncodeMem(alpha.OpLDQ, 1, 2, 0)),
		mustEnc(alpha.EncodeOperateR(alpha.OpADDQ, 0, 1, 0)),
		mustEnc(alpha.EncodeMem(alpha.OpSTQ, 0, 2, 8)),
		mustEnc(alpha.EncodeOperateL(alpha.OpSUBQ, 3, 1, 3)),
		mustEnc(alpha.EncodeBranch(alpha.OpBNE, 3, -5)),
	))
	f.Add(uint8(3), seed(
		mustEnc(alpha.EncodeBranch(alpha.OpBSR, 26, 2)),
		mustEnc(alpha.EncodeOperateR(alpha.OpBIS, 9, 9, 0)),
		mustEnc(alpha.EncodeJump(alpha.OpRET, 31, 26, 0)),
	))
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

		var res *translate.Result
		var err error
		if sel&16 != 0 {
			res, err = translate.Straighten(sb, chain)
		} else {
			res, err = translate.Translate(sb, translate.Config{
				Form: form, NumAcc: numAcc, Chain: chain,
			})
		}
		if err != nil {
			return // untranslatable input is the interpreter's problem
		}
		if rep := semcheck.Check(sb, res); !rep.OK() {
			t.Fatalf("translation of %d insts (form %v, chain %v) not equivalent:\n%s",
				len(sb.Insts), form, chain, rep)
		}
	})
}

// BenchmarkProve reports prover throughput over the harvested corpus,
// comparable to the structural verifier's BenchmarkVerify.
func BenchmarkProve(b *testing.B) {
	entries := corpus(b)
	insts := 0
	type pair struct {
		sb   *translate.Superblock
		code *translate.Result
	}
	pairs := make([]pair, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		insts += len(e.frag.Insts)
		code := &e.frag.Result
		sb, err := semcheck.Reconstruct(e.read, code)
		if err != nil {
			b.Fatal(err)
		}
		pairs = append(pairs, pair{sb, code})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if rep := semcheck.Check(p.sb, p.code); !rep.OK() {
				b.Fatal(rep)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(entries)*b.N)/b.Elapsed().Seconds(), "frags/s")
	b.ReportMetric(float64(insts*b.N)/b.Elapsed().Seconds(), "insts/s")
}

// overlap pins, per structural rule, how its mutation fared over the
// corpus: the fragments where Apply found a site, and how many of those
// mutated copies the prover also rejects.
type overlap struct{ applied, proverRejects int }

// TestCheckerOverlap records which checker catches each structural
// corruption. Every mutation of iverify.Mutations is run on a deep copy
// of every corpus fragment; wherever it applies, the structural rules
// must reject the copy, and the prover's verdict on the same copy,
// against the superblock reconstructed from the installed fragment, is
// counted. A rule whose prover count equals its applied count is one
// the prover covers at every site in the corpus — the evidence a
// deletion of that rule would need.
func TestCheckerOverlap(t *testing.T) {
	want := map[string]overlap{
		// The prover rejects every site.
		"E1": {78, 78}, "D1": {141, 141}, "D3": {6, 6},
		"P1": {156, 156}, "P2": {156, 156}, "P3": {39, 39}, "P4": {27, 27},
		"C2": {180, 180}, "C4": {28, 28},
		// The prover rejects some sites: the corrupted operand or
		// specifier does not always change what the fragment computes.
		"E2": {180, 96}, "E3": {160, 132}, "E4": {160, 156},
		"E6": {180, 78}, "D2": {148, 144},
		// The prover rejects no site: these rules check metadata it does
		// not model (entry V-PC, recorded size, chain stub, link).
		"E5": {180, 0}, "C1": {180, 0}, "C3": {124, 0}, "C5": {108, 0},
	}
	entries := corpus(t)
	sbs := make([]*translate.Superblock, len(entries))
	pristine := make([]translate.Result, len(entries))
	for i := range entries {
		e := &entries[i]
		sb, err := semcheck.Reconstruct(e.read, &e.frag.Result)
		if err != nil {
			t.Fatalf("%s: %v", e.label, err)
		}
		sbs[i], pristine[i] = sb, deepCopy(&e.frag.Result)
	}
	got := map[string]overlap{}
	for _, m := range iverify.Mutations() {
		var o overlap
		for i := range entries {
			e := &entries[i]
			res := deepCopy(&e.frag.Result)
			if !m.Apply(&res, e.vcfg) {
				continue
			}
			o.applied++
			if iverify.Verify(&res, e.vcfg).OK() {
				t.Errorf("%s on %s: the structural rules accept the mutated copy", m.Name, e.label)
			}
			if !semcheck.Check(sbs[i], &res).OK() {
				o.proverRejects++
			}
		}
		got[m.Rule.ID()] = o
		t.Logf("%s %-24s applied %3d, prover rejects %3d", m.Rule.ID(), m.Name, o.applied, o.proverRejects)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: applied %d, prover rejects %d; want %d, %d",
				id, got[id].applied, got[id].proverRejects, w.applied, w.proverRejects)
		}
	}
	for i := range entries {
		if !reflect.DeepEqual(deepCopy(&entries[i].frag.Result), pristine[i]) {
			t.Errorf("%s: the installed fragment changed", entries[i].label)
		}
	}
}

// deepCopy copies a translation's instruction stream and every table a
// mutation may edit.
func deepCopy(r *translate.Result) translate.Result {
	d := *r
	d.Insts = append([]ildp.Inst(nil), r.Insts...)
	d.PEI = append([]uint64(nil), r.PEI...)
	d.Strands = append([]int(nil), r.Strands...)
	d.EndLive = append([]alpha.Reg(nil), r.EndLive...)
	d.PEIRecover = make([][]translate.RegAcc, len(r.PEIRecover))
	for i := range r.PEIRecover {
		d.PEIRecover[i] = append([]translate.RegAcc(nil), r.PEIRecover[i]...)
	}
	d.ExitLive = make([][]alpha.Reg, len(r.ExitLive))
	for i := range r.ExitLive {
		d.ExitLive[i] = append([]alpha.Reg(nil), r.ExitLive[i]...)
	}
	return d
}
