package experiments

import (
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// Table2Row is one benchmark's translated-instruction statistics (paper
// Table 2): dynamic instruction expansion and copy percentage for the
// Basic (B) and Modified (M) ISAs, static code-size expansion, and the
// translation overhead in Alpha instructions per translated instruction.
type Table2Row struct {
	Bench      string
	RelDynB    float64
	RelDynM    float64
	CopyPctB   float64
	CopyPctM   float64
	RelStaticB float64
	RelStaticM float64
	Overhead   float64
}

// Table2 reproduces the paper's Table 2 over all workloads.
func Table2(scale int, hotThreshold int) []Table2Row {
	return perWorkload(scale, func(w *workload.Spec) Table2Row {
		basic := MustRun(RunSpec{
			Workload: w, Machine: ILDPBasic, Chain: translate.SWPredRAS,
			HotThreshold: hotThreshold,
		})
		mod := MustRun(RunSpec{
			Workload: w, Machine: ILDPModified, Chain: translate.SWPredRAS,
			HotThreshold: hotThreshold,
		})
		row := Table2Row{Bench: w.Name}
		// Dynamic expansion: I-ISA instructions executed per V-ISA
		// instruction retired, both measured over translated-code
		// execution (NOPs are removed by translation and excluded from
		// the V-ISA counts, as in the paper).
		row.RelDynB = ratio(basic.VM.TransIInsts, basic.VM.TransVInsts)
		row.RelDynM = ratio(mod.VM.TransIInsts, mod.VM.TransVInsts)
		row.CopyPctB = 100 * ratio(basic.VM.CopiesExecuted, basic.VM.TransIInsts)
		row.CopyPctM = 100 * ratio(mod.VM.CopiesExecuted, mod.VM.TransIInsts)
		row.RelStaticB = ratio(uint64(basic.VM.StaticCodeBytes), uint64(basic.VM.StaticSrcBytes))
		row.RelStaticM = ratio(uint64(mod.VM.StaticCodeBytes), uint64(mod.VM.StaticSrcBytes))
		row.Overhead = float64(mod.VM.TranslateCost) / float64(mod.VM.SrcInstsTranslated)
		return row
	})
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
