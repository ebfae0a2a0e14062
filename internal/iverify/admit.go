package iverify

import (
	"fmt"

	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/translate"
)

// Checks is a set of the two fragment checkers.
type Checks uint8

const (
	// CheckRules runs this package's structural rules.
	CheckRules Checks = 1 << iota
	// CheckProof proves the code equivalent to its source superblock
	// (internal/semcheck).
	CheckProof
)

// Admission reports which checks Admit ran and what each found. A
// report is nil when its check was not asked for or was not reached;
// Rules.Skipped marks straightened code, which the rules do not check.
type Admission struct {
	Rules *Report
	Proof *semcheck.Report
}

// RejectError is Admit's refusal: the checker that rejected the code
// and its report.
type RejectError struct {
	By     Checks       // CheckRules or CheckProof
	Report fmt.Stringer // *Report or *semcheck.Report
}

func (e *RejectError) Error() string {
	if e.By == CheckProof {
		return "fragment equivalence proof failed:\n" + e.Report.String()
	}
	return "fragment verification failed:\n" + e.Report.String()
}

// Admit is the one rule deciding whether translated code may run or
// enter a store; VM translation, fragment-store load and ildplint all
// call it. Of the checks in want it runs the structural rules first
// (straightened code carries no I-ISA invariants, so they skip it) and
// then, if the rules accepted, proves res equivalent to sb, which only
// CheckProof reads. The first rejection stops it with a *RejectError.
// res may be a translator's result or an installed fragment's
// &f.Result; neither check modifies it.
func Admit(res *translate.Result, sb *translate.Superblock, cfg Config, want Checks) (Admission, error) {
	var a Admission
	if want&CheckRules != 0 {
		a.Rules = Verify(res, cfg)
		if !a.Rules.OK() {
			return a, &RejectError{By: CheckRules, Report: a.Rules}
		}
	}
	if want&CheckProof != 0 {
		a.Proof = semcheck.Check(sb, res)
		if !a.Proof.OK() {
			return a, &RejectError{By: CheckProof, Report: a.Proof}
		}
	}
	return a, nil
}
