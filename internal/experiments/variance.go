package experiments

import (
	"github.com/ildp/accdbt/internal/stats"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// VarianceRow reports the sensitivity of the headline Table 2 metrics to
// the workloads' pseudo-random datasets: the same kernels are regenerated
// with perturbed data seeds and the across-seed spread is measured. Small
// spreads mean the reproduction's conclusions are properties of the
// kernels' structure, not of one lucky dataset.
type VarianceRow struct {
	Seed     uint64
	DynB     float64 // mean basic-ISA dynamic expansion over all workloads
	DynM     float64
	CopyPctB float64
	CopyPctM float64
}

// Variance runs Table 2 across datasets. Seed 0 is the canonical dataset.
func Variance(scale, hotThreshold int, seeds []uint64) []VarianceRow {
	var rows []VarianceRow
	for _, seed := range seeds {
		var db, dm, cb, cm []float64
		for _, name := range workload.Names() {
			w, err := workload.ByNameSeeded(name, scale, seed)
			if err != nil {
				panic(err)
			}
			basic := MustRun(RunSpec{Workload: w, Machine: ILDPBasic,
				Chain: translate.SWPredRAS, HotThreshold: hotThreshold})
			mod := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
				Chain: translate.SWPredRAS, HotThreshold: hotThreshold})
			db = append(db, ratio(basic.VM.TransIInsts, basic.VM.TransVInsts))
			dm = append(dm, ratio(mod.VM.TransIInsts, mod.VM.TransVInsts))
			cb = append(cb, 100*ratio(basic.VM.CopiesExecuted, basic.VM.TransIInsts))
			cm = append(cm, 100*ratio(mod.VM.CopiesExecuted, mod.VM.TransIInsts))
		}
		rows = append(rows, VarianceRow{
			Seed: seed,
			DynB: stats.Mean(db), DynM: stats.Mean(dm),
			CopyPctB: stats.Mean(cb), CopyPctM: stats.Mean(cm),
		})
	}
	return rows
}
