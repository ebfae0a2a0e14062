package experiments

import (
	"github.com/ildp/accdbt/internal/stats"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// VMCostRow quantifies the §4.1/§4.2 overhead discussion for one
// benchmark: interpretation (~20 Alpha instructions per interpreted
// instruction, ~1000 per source instruction at threshold 50) and
// translation (~1125 per translated instruction) as shares of total work.
type VMCostRow struct {
	Bench          string
	InterpInsts    uint64
	TransVInsts    uint64
	InterpCost     int64
	TranslateCost  int64
	OverheadPerV   float64 // (interp + translate) cost per retired V-inst
	InterpPerSrc   float64 // interpretation cost per translated source inst
	BreakEvenVInst float64 // V-insts needed to amortise the VM overhead at 1 unit/inst
}

// VMCost runs the overhead analysis over all workloads.
func VMCost(scale, hotThreshold int) []VMCostRow {
	var rows []VMCostRow
	for _, w := range workload.All(scale) {
		out := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, HotThreshold: hotThreshold})
		s := out.VM
		row := VMCostRow{
			Bench:         w.Name,
			InterpInsts:   s.InterpInsts,
			TransVInsts:   s.TransVInsts,
			InterpCost:    s.InterpCost(),
			TranslateCost: s.TranslateCost,
		}
		total := float64(s.TotalVInsts())
		if total > 0 {
			row.OverheadPerV = float64(s.VMOverhead()) / total
		}
		if s.SrcInstsTranslated > 0 {
			row.InterpPerSrc = float64(s.InterpCost()) / float64(s.SrcInstsTranslated)
		}
		row.BreakEvenVInst = float64(s.VMOverhead())
		rows = append(rows, row)
	}
	return rows
}

// RASRow is one dual-address-RAS size point (extension ablation: the paper
// proposes the structure but does not size it).
type RASRow struct {
	Size    int
	HitRate float64 // over the call/return-heavy stand-ins
	IPC     float64 // geomean over eon + vortex
	ExpandR float64 // mean dynamic expansion over eon + vortex
}

// RASSweep sizes the dual-address RAS on the return-heavy workloads.
func RASSweep(scale, hotThreshold int, sizes []int) []RASRow {
	benches := []string{"eon", "vortex"}
	var rows []RASRow
	for _, size := range sizes {
		var hits, total uint64
		var ipcs, expands []float64
		for _, name := range benches {
			w, err := workload.ByName(name, scale)
			if err != nil {
				panic(err)
			}
			out := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
				Chain: translate.SWPredRAS, Timing: true,
				HotThreshold: hotThreshold, RASSize: size})
			hits += out.VM.RASHits
			total += out.VM.RASHits + out.VM.RASMisses
			ipcs = append(ipcs, out.Timing.IPC())
			expands = append(expands, ratio(out.VM.TransIInsts, out.VM.TransVInsts))
		}
		row := RASRow{Size: size, IPC: stats.GeoMean(ipcs), ExpandR: stats.Mean(expands)}
		if total > 0 {
			row.HitRate = float64(hits) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}
