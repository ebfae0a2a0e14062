// Command ildplint statically verifies translated I-ISA fragments against
// the paper's accumulator invariants. It runs a program (a named workload,
// an assembly source file, or an alphaasm image) through the co-designed
// VM to populate the translation cache, then checks every installed
// fragment with the iverify rules — encoding legality, accumulator
// dataflow, precise-state completeness, and chaining well-formedness —
// with fragment links resolved against the cache.
//
// With -sem, every fragment is additionally proved semantically: its
// source superblock is reconstructed from guest memory and the symbolic
// equivalence prover (DESIGN.md §12) shows the fragment computes the
// superblock's semantics at every exit — final registers, memory
// effects, and next V-PC — printing typed counterexamples otherwise.
//
// The exit status is 0 when every fragment verifies, 1 when any fragment
// has violations, and 2 on usage errors.
//
// Usage:
//
//	ildplint -workload gzip -form basic -chain sw_pred.ras
//	ildplint -workload gzip -sem                      (prove semantics too)
//	ildplint -src prog.s -acc 8 -v
//	ildplint -workload mcf -corrupt drop-state-copy   (demonstrates a failure)
//	ildplint -rules                                   (print the rule table)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "verify a named synthetic workload (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	rules := flag.Bool("rules", false, "print the verifier rule table and exit")
	srcFile := flag.String("src", "", "verify an Alpha assembly source file")
	imgFile := flag.String("img", "", "verify an alphaasm program image")
	scale := flag.Int("scale", 1, "workload scale factor")
	form := flag.String("form", "modified", "I-ISA form: basic | modified")
	chain := flag.String("chain", "sw_pred.ras", "chaining: no_pred | sw_pred.no_ras | sw_pred.ras")
	threshold := flag.Int("threshold", 10, "hot-trace threshold")
	numAcc := flag.Int("acc", 4, "logical accumulators")
	maxV := flag.Int64("max", 5_000_000, "V-instruction budget (0 = unlimited)")
	corrupt := flag.String("corrupt", "", "apply a named mutation before checking (see -rules)")
	sem := flag.Bool("sem", false, "also prove each fragment semantically equivalent to its reconstructed source")
	verbose := flag.Bool("v", false, "print a line per fragment, not just failures")
	flag.Parse()

	if *rules {
		fmt.Println("rule  name            paper   mutation")
		for _, r := range iverify.Rules() {
			name := ""
			for _, m := range iverify.Mutations() {
				if m.Rule == r {
					name = m.Name
				}
			}
			fmt.Printf("%-5s %-15s %-7s %s\n", r.ID(), r, r.PaperRef(), name)
		}
		return
	}
	if *list {
		workload.List(os.Stdout)
		return
	}

	cfg := vm.DefaultConfig()
	cfg.HotThreshold = *threshold
	cfg.NumAcc = *numAcc
	var err error
	if cfg.Chain, err = translate.ParseChainMode(*chain); err != nil {
		fatal(err)
	}
	if cfg.Form, err = ildp.ParseForm(*form); err != nil {
		fatal(fmt.Errorf("%w; straightened code carries no I-ISA invariants", err))
	}

	prog, name, err := workload.Load(*wl, *srcFile, *imgFile, *scale)
	if errors.Is(err, workload.ErrNoProgram) {
		fmt.Fprintln(os.Stderr, "ildplint:", err)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(prog); err != nil {
		fatal(err)
	}
	if err := v.Run(*maxV); err != nil && !errors.Is(err, vm.ErrBudget) {
		fatal(err)
	}

	tc := v.TCache()
	if tc.Len() == 0 {
		fatal(fmt.Errorf("%s translated no fragments; lower -threshold or raise -max", name))
	}
	vcfg := iverify.Config{
		Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain,
		ResolveFrag: func(id int32) (uint64, bool) {
			f := tc.Frag(id)
			if f == nil {
				return 0, false
			}
			return f.VStart, true
		},
	}

	var mutation *iverify.Mutation
	if *corrupt != "" {
		for i := range iverify.Mutations() {
			if m := iverify.Mutations()[i]; m.Name == *corrupt {
				mutation = &m
				break
			}
		}
		if mutation == nil {
			fatal(fmt.Errorf("unknown mutation %q (see -rules)", *corrupt))
		}
	}

	// The prover reconstructs each fragment's source superblock by
	// decoding guest memory, so it reads through the CPU the fragments
	// were translated from.
	cpu := v.CPU()
	readWord := func(addr uint64) (alpha.Word, error) {
		w, err := cpu.Mem.Read32(addr)
		return alpha.Word(w), err
	}

	checked, violations, dirty, corrupted, proved, disproved := 0, 0, 0, 0, 0, 0
	for id := int32(0); int(id) < tc.Len(); id++ {
		code := iverify.FromFragment(tc.Frag(id))
		ccfg := vcfg
		if mutation != nil {
			// Mutated fragments fabricate links with no installed target;
			// lint them unresolved, as the mutation engine does.
			ccfg.ResolveFrag = nil
			if mutation.Apply(code, ccfg) {
				corrupted++
			}
		}
		rep := iverify.Check(code, ccfg)
		if rep.Skipped {
			continue
		}
		checked++
		if !rep.OK() {
			dirty++
			violations += len(rep.Violations)
			fmt.Printf("%s: fragment %d: %s\n", name, id, rep)
		} else if *verbose {
			fmt.Printf("%s: fragment %d: %s\n", name, id, rep)
		}

		if *sem {
			scode := &semcheck.Code{VStart: code.VStart, Insts: code.Insts,
				PEI: code.PEI, PEIRecover: code.PEIRecover,
				Straightened: code.Straightened}
			sb, err := semcheck.Reconstruct(readWord, scode)
			if err != nil {
				disproved++
				fmt.Printf("%s: fragment %d: %v\n", name, id, err)
				continue
			}
			srep := semcheck.Prove(sb, scode)
			if !srep.OK() {
				disproved++
				fmt.Printf("%s: fragment %d: proof failed:\n%s\n", name, id, srep)
			} else {
				proved++
				if *verbose {
					fmt.Printf("%s: fragment %d: proved (%d exits, %d finals)\n",
						name, id, srep.Exits, srep.Finals)
				}
			}
		}
	}

	if mutation != nil && corrupted == 0 {
		fatal(fmt.Errorf("mutation %q found no applicable site in %d fragments",
			*corrupt, tc.Len()))
	}
	fmt.Printf("%s: %d fragments checked, %d with violations (%d total violations)\n",
		name, checked, dirty, violations)
	if *sem {
		fmt.Printf("%s: %d fragments proved, %d with counterexamples\n",
			name, proved, disproved)
	}
	if dirty > 0 || disproved > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ildplint:", err)
	os.Exit(1)
}
