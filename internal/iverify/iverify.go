// Package iverify statically verifies translated I-ISA fragments against
// the structural invariants of Kim & Smith (CGO 2003). The translator is
// trusted to *establish* these invariants; this package proves — without
// executing the fragment — that a given translation actually obeys them,
// so every future translator change can be checked mechanically.
//
// Four groups of rules are checked, by four independent passes:
//
//   - Encoding legality (E1..E6, §2.2/§2.3): at most one GPR and one
//     accumulator source per instruction (conditional-move select
//     excepted), accumulator operands within the configured file, valid
//     16/32/64-bit size classes, and the per-form destination-specifier
//     discipline.
//   - Accumulator dataflow (D1..D3, §3.3): a linear-scan abstract
//     interpretation proving every accumulator read is dominated by a
//     definition of the same strand, that no value bleeds between
//     strands through an accumulator, and that spill/reload pairs
//     restore the spilled strand's own value.
//   - Precise-state completeness (P1..P4, §2.2): at every potentially
//     excepting instruction, side exit, and the fragment end, the
//     current value of every architected register the fragment has
//     defined is recoverable — present in the register file, or (Basic
//     form) mapped by the PEI recovery table to the accumulator that
//     holds it.
//   - Chaining well-formedness (C1..C5, §3.2/§3.4): the set-VPC
//     prologue, a terminating unconditional transfer, exit stubs that
//     match the configured chain mode, the jump-target latch before
//     dispatch jumps, and well-formed fragment links.
//
// Fragments produced by the code-straightening-only translator are not
// subject to the I-ISA invariants and are reported as skipped.
package iverify

import (
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// Rule identifies one verifier rule.
type Rule uint8

const (
	RuleGPRSources Rule = iota + 1 // E1
	RuleAccSources                 // E2
	RuleAccRange                   // E3
	RuleAccBinding                 // E4
	RuleSizeClass                  // E5
	RuleFormDest                   // E6

	RuleAccUndefined // D1
	RuleStrandBleed  // D2
	RuleSpillRestore // D3

	RulePEITable     // P1
	RuleStateRecover // P2
	RuleStateLost    // P3
	RuleStaleRead    // P4

	RulePrologue   // C1
	RuleTerminator // C2
	RuleChainMode  // C3
	RuleJTarget    // C4
	RuleFragLink   // C5

	numRules
)

// ruleInfo carries the rule's short identifier, name, and the paper
// section it encodes (also rendered as a table in DESIGN.md).
var ruleInfo = [numRules]struct {
	id, name, paper string
}{
	RuleGPRSources:   {"E1", "gpr-sources", "§2.2"},
	RuleAccSources:   {"E2", "acc-sources", "§2.2"},
	RuleAccRange:     {"E3", "acc-range", "§3.3"},
	RuleAccBinding:   {"E4", "acc-binding", "§2.2"},
	RuleSizeClass:    {"E5", "size-class", "§2.3"},
	RuleFormDest:     {"E6", "form-dest", "§2.2/§2.3"},
	RuleAccUndefined: {"D1", "acc-undefined", "§3.3"},
	RuleStrandBleed:  {"D2", "strand-bleed", "§3.3"},
	RuleSpillRestore: {"D3", "spill-restore", "§3.3"},
	RulePEITable:     {"P1", "pei-table", "§2.2"},
	RuleStateRecover: {"P2", "state-recover", "§2.2"},
	RuleStateLost:    {"P3", "state-lost", "§2.2"},
	RuleStaleRead:    {"P4", "stale-read", "§2.2"},
	RulePrologue:     {"C1", "prologue", "§3.2"},
	RuleTerminator:   {"C2", "terminator", "§3.2"},
	RuleChainMode:    {"C3", "chain-mode", "§3.4"},
	RuleJTarget:      {"C4", "jtarget-latch", "§3.4"},
	RuleFragLink:     {"C5", "frag-link", "§3.2"},
}

// ID returns the rule's short identifier, e.g. "E1".
func (r Rule) ID() string {
	if r > 0 && r < numRules {
		return ruleInfo[r].id
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// String returns the rule's name, e.g. "gpr-sources".
func (r Rule) String() string {
	if r > 0 && r < numRules {
		return ruleInfo[r].name
	}
	return fmt.Sprintf("rule(%d)", uint8(r))
}

// PaperRef returns the paper section the rule encodes.
func (r Rule) PaperRef() string {
	if r > 0 && r < numRules {
		return ruleInfo[r].paper
	}
	return "?"
}

// Rules lists every verifier rule.
func Rules() []Rule {
	rules := make([]Rule, 0, numRules-1)
	for r := Rule(1); r < numRules; r++ {
		rules = append(rules, r)
	}
	return rules
}

// Severity grades a violation.
type Severity uint8

const (
	SevError Severity = iota
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Violation is one structured diagnostic. Index is the offending
// instruction's position in the fragment, or -1 for fragment-level
// violations (table shape, missing terminator).
type Violation struct {
	Rule     Rule
	Index    int
	Severity Severity
	Detail   string
}

func (v *Violation) String() string {
	at := "fragment"
	if v.Index >= 0 {
		at = fmt.Sprintf("#%d", v.Index)
	}
	return fmt.Sprintf("[%s %s %s] %s: %s", v.Rule.ID(), v.Rule, v.Rule.PaperRef(), at, v.Detail)
}

// Report is the outcome of verifying one fragment.
type Report struct {
	VStart     uint64
	Insts      int
	Skipped    bool // straightened code carries no I-ISA invariants
	Violations []Violation
}

// OK reports whether no error-severity violation was found.
func (r *Report) OK() bool {
	for i := range r.Violations {
		if r.Violations[i].Severity == SevError {
			return false
		}
	}
	return true
}

// Rules returns the distinct rules violated, in rule order.
func (r *Report) Rules() []Rule {
	var seen [numRules]bool
	for i := range r.Violations {
		if rl := r.Violations[i].Rule; rl < numRules {
			seen[rl] = true
		}
	}
	var out []Rule
	for rl := Rule(1); rl < numRules; rl++ {
		if seen[rl] {
			out = append(out, rl)
		}
	}
	return out
}

// String formats the report, one line per violation.
func (r *Report) String() string {
	var b strings.Builder
	switch {
	case r.Skipped:
		fmt.Fprintf(&b, "fragment V %#x: skipped (straightened code)", r.VStart)
	case len(r.Violations) == 0:
		fmt.Fprintf(&b, "fragment V %#x: ok (%d instructions)", r.VStart, r.Insts)
	default:
		fmt.Fprintf(&b, "fragment V %#x: %d violation(s) in %d instructions",
			r.VStart, len(r.Violations), r.Insts)
		for i := range r.Violations {
			b.WriteString("\n  ")
			b.WriteString(r.Violations[i].String())
		}
	}
	return b.String()
}

func (r *Report) add(rule Rule, idx int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Rule: rule, Index: idx, Severity: SevError,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Config parameterises verification with the translation configuration the
// fragment was produced under.
type Config struct {
	Form   ildp.Form
	NumAcc int // 0 means ildp.DefaultAccumulators
	Chain  translate.ChainMode

	// ResolveFrag, when non-nil, maps a fragment ID to the V-ISA start
	// address of the installed fragment, for checking patched links
	// against their recorded V-ISA targets. Unset, linked targets are
	// not checked.
	ResolveFrag func(id int32) (vstart uint64, ok bool)
}

// Verify runs all verification passes over a translation — a
// translator's result, or an installed fragment's &f.Result, whose links
// may have been patched since translation (the rules accept both
// unlinked and linked exits) — and returns the collected diagnostics.
// Strands, ExitLive, and EndLive are optional; rules needing an absent
// input are skipped, and a zero CodeBytes disables the encoded-size
// total check. Straightened code carries no I-ISA invariants and is
// reported as skipped.
func Verify(c *translate.Result, cfg Config) *Report {
	rep := &Report{VStart: c.VStart, Insts: len(c.Insts)}
	if c.Straightened {
		rep.Skipped = true
		return rep
	}
	if cfg.NumAcc <= 0 {
		cfg.NumAcc = ildp.DefaultAccumulators
	}
	k := &checker{c: c, cfg: cfg, rep: rep}
	k.checkEncoding()
	k.checkDataflow()
	k.checkPreciseState()
	k.checkChaining()
	return rep
}

// checker carries shared state across the verification passes.
type checker struct {
	c   *translate.Result
	cfg Config
	rep *Report
}
