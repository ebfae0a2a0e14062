package semcheck

import (
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// CheckOps runs the per-op check over ops, an op list for code's
// instructions, for the mutation tests, which corrupt the list.
func CheckOps(code *translate.Result, ops []tcache.Op) []Counterexample {
	return newOpChecker(newBuilder(), code).check(ops)
}
