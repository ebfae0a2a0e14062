package experiments

import (
	"github.com/ildp/accdbt/internal/stats"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// The ablation drivers evaluate the design choices DESIGN.md calls out and
// the extensions the paper proposes but does not implement.

// FusionRow compares split vs fused memory operations (§4.5: "One way to
// deal with this instruction count expansion is to not split memory
// instructions into two").
type FusionRow struct {
	Bench        string
	SplitExpand  float64 // I-insts per V-inst, address computation split out
	FusedExpand  float64 // with displacements kept in the memory instruction
	SplitIPC     float64
	FusedIPC     float64
	SplitStaticB float64 // static code expansion
	FusedStaticB float64
}

// Fusion runs the §4.5 unsplit-memory-operation ablation on the modified
// ISA.
func Fusion(scale, hotThreshold int) []FusionRow {
	var rows []FusionRow
	for _, w := range workload.All(scale) {
		base := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, Timing: true, HotThreshold: hotThreshold})
		fused := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, Timing: true, FuseMem: true, HotThreshold: hotThreshold})
		rows = append(rows, FusionRow{
			Bench:        w.Name,
			SplitExpand:  ratio(base.VM.TransIInsts, base.VM.TransVInsts),
			FusedExpand:  ratio(fused.VM.TransIInsts, fused.VM.TransVInsts),
			SplitIPC:     base.Timing.IPC(),
			FusedIPC:     fused.Timing.IPC(),
			SplitStaticB: ratio(uint64(base.VM.StaticCodeBytes), uint64(base.VM.StaticSrcBytes)),
			FusedStaticB: ratio(uint64(fused.VM.StaticCodeBytes), uint64(fused.VM.StaticSrcBytes)),
		})
	}
	return rows
}

// ThresholdRow sweeps the hot-trace threshold: lower thresholds translate
// more (and sooner) at higher translation cost per retired instruction.
type ThresholdRow struct {
	Threshold     int
	TransFraction float64 // V-insts retired in translated mode
	CostShare     float64 // translation work units per total V-inst
	Fragments     float64 // mean fragments per workload
}

// Threshold sweeps the interpret/translate threshold over all workloads.
func Threshold(scale int, thresholds []int) []ThresholdRow {
	var rows []ThresholdRow
	for _, thr := range thresholds {
		var frac, cost, frags []float64
		for _, w := range workload.All(scale) {
			out := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
				Chain: translate.SWPredRAS, HotThreshold: thr})
			frac = append(frac, float64(out.VM.TransVInsts)/float64(out.VM.TotalVInsts()))
			cost = append(cost, float64(out.VM.TranslateCost)/float64(out.VM.TotalVInsts()))
			frags = append(frags, float64(out.VM.Fragments))
		}
		rows = append(rows, ThresholdRow{
			Threshold:     thr,
			TransFraction: stats.Mean(frac),
			CostShare:     stats.Mean(cost),
			Fragments:     stats.Mean(frags),
		})
	}
	return rows
}

// SuperblockRow sweeps the maximum superblock size (§4.1: the paper found
// 50 "not large enough to provide performance benefits from code
// straightening"; 200 is the baseline).
type SuperblockRow struct {
	MaxSize   int
	IPC       float64 // geomean straightened-superscalar IPC
	Fragments float64
	Exits     float64 // mean VM exits (shorter blocks exit more)
}

// Superblock sweeps the maximum superblock size on the straightened
// machine.
func Superblock(scale, hotThreshold int, sizes []int) []SuperblockRow {
	var rows []SuperblockRow
	for _, size := range sizes {
		var ipc, frags, exits []float64
		for _, w := range workload.All(scale) {
			out := MustRun(RunSpec{Workload: w, Machine: Straightened,
				Chain: translate.SWPredRAS, Timing: true,
				HotThreshold: hotThreshold, MaxSB: size})
			ipc = append(ipc, out.Timing.IPC())
			frags = append(frags, float64(out.VM.Fragments))
			exits = append(exits, float64(out.VM.Exits))
		}
		rows = append(rows, SuperblockRow{
			MaxSize:   size,
			IPC:       stats.GeoMean(ipc),
			Fragments: stats.Mean(frags),
			Exits:     stats.Mean(exits),
		})
	}
	return rows
}
