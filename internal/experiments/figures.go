package experiments

import (
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// Fig4Row is one benchmark's branch/jump mispredictions per 1000
// instructions under the three chaining implementations, against the
// original code (paper Fig. 4, measured on the code-straightening-only
// simulator).
type Fig4Row struct {
	Bench     string
	Original  float64
	NoPred    float64
	SWPred    float64
	SWPredRAS float64
}

// Fig4 reproduces the chaining-method misprediction comparison.
func Fig4(scale, hotThreshold int) []Fig4Row {
	return perWorkload(scale, func(w *workload.Spec) Fig4Row {
		orig := MustRun(RunSpec{Workload: w, Machine: Original, Timing: true,
			HotThreshold: hotThreshold})
		row := Fig4Row{Bench: w.Name, Original: orig.Timing.MispredictsPer1000()}
		for _, ch := range []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS} {
			out := MustRun(RunSpec{Workload: w, Machine: Straightened, Chain: ch,
				Timing: true, HotThreshold: hotThreshold})
			per := out.Timing.MispredictsPer1000()
			switch ch {
			case translate.NoPred:
				row.NoPred = per
			case translate.SWPred:
				row.SWPred = per
			case translate.SWPredRAS:
				row.SWPredRAS = per
			}
		}
		return row
	})
}

// Fig5Row is one benchmark's dynamic instruction-count expansion from
// chaining on straightened Alpha (paper Fig. 5).
type Fig5Row struct {
	Bench     string
	NoPred    float64
	SWPred    float64
	SWPredRAS float64
}

// Fig5 reproduces the relative-instruction-count figure.
func Fig5(scale, hotThreshold int) []Fig5Row {
	return perWorkload(scale, func(w *workload.Spec) Fig5Row {
		row := Fig5Row{Bench: w.Name}
		for _, ch := range []translate.ChainMode{translate.NoPred, translate.SWPred, translate.SWPredRAS} {
			out := MustRun(RunSpec{Workload: w, Machine: Straightened, Chain: ch,
				HotThreshold: hotThreshold})
			rel := ratio(out.VM.TransIInsts, out.VM.TransVInsts)
			switch ch {
			case translate.NoPred:
				row.NoPred = rel
			case translate.SWPred:
				row.SWPred = rel
			case translate.SWPredRAS:
				row.SWPredRAS = rel
			}
		}
		return row
	})
}

// Fig6Row is one benchmark's IPC for the code-straightening study (paper
// Fig. 6): original and straightened code, with and without return address
// stack support.
type Fig6Row struct {
	Bench         string
	OrigNoRAS     float64
	OrigRAS       float64
	StraightNoRAS float64
	StraightRAS   float64
}

// Fig6 reproduces the code-straightening / RAS IPC study.
func Fig6(scale, hotThreshold int) []Fig6Row {
	return perWorkload(scale, func(w *workload.Spec) Fig6Row {
		row := Fig6Row{Bench: w.Name}
		row.OrigNoRAS = MustRun(RunSpec{Workload: w, Machine: Original,
			Timing: true, NoHWRAS: true, HotThreshold: hotThreshold}).Timing.IPC()
		row.OrigRAS = MustRun(RunSpec{Workload: w, Machine: Original,
			Timing: true, HotThreshold: hotThreshold}).Timing.IPC()
		row.StraightNoRAS = MustRun(RunSpec{Workload: w, Machine: Straightened,
			Chain: translate.SWPred, Timing: true, HotThreshold: hotThreshold}).Timing.IPC()
		row.StraightRAS = MustRun(RunSpec{Workload: w, Machine: Straightened,
			Chain: translate.SWPredRAS, Timing: true, HotThreshold: hotThreshold}).Timing.IPC()
		return row
	})
}

// Fig7Row is one benchmark's output register usage breakdown (paper
// Fig. 7), as fractions of dynamic value-producing instructions.
type Fig7Row struct {
	Bench     string
	Fractions map[ildp.UsageClass]float64
}

// fig7Classes is the paper's legend order.
var fig7Classes = []ildp.UsageClass{
	ildp.UsageNoUser, ildp.UsageNoUserGlobal, ildp.UsageLocal,
	ildp.UsageLocalGlobal, ildp.UsageTemp, ildp.UsageComm, ildp.UsageLiveOut,
}

// Fig7 reproduces the output-usage ("globalness") statistics.
func Fig7(scale, hotThreshold int) []Fig7Row {
	return perWorkload(scale, func(w *workload.Spec) Fig7Row {
		out := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, HotThreshold: hotThreshold})
		var total uint64
		for _, c := range fig7Classes {
			total += out.VM.UsageDyn[c]
		}
		row := Fig7Row{Bench: w.Name, Fractions: map[ildp.UsageClass]float64{}}
		for _, c := range fig7Classes {
			row.Fractions[c] = ratio(out.VM.UsageDyn[c], total)
		}
		return row
	})
}

// GlobalFraction returns the fraction of values needing latency-critical
// GPR writes (live-out + communication), the paper's ~25% headline.
func (r *Fig7Row) GlobalFraction() float64 {
	return r.Fractions[ildp.UsageLiveOut] + r.Fractions[ildp.UsageComm]
}

// Fig8Row is one benchmark's IPC across the four machines plus the native
// I-ISA IPC of the modified form (paper Fig. 8; 8 PEs, 32KB D$, 0-cycle
// communication latency).
type Fig8Row struct {
	Bench      string
	Original   float64
	Straight   float64
	Basic      float64
	Modified   float64
	NativeIISA float64
}

// Fig8 reproduces the headline IPC comparison.
func Fig8(scale, hotThreshold int) []Fig8Row {
	return perWorkload(scale, func(w *workload.Spec) Fig8Row {
		row := Fig8Row{Bench: w.Name}
		row.Original = MustRun(RunSpec{Workload: w, Machine: Original,
			Timing: true, HotThreshold: hotThreshold}).Timing.IPC()
		row.Straight = MustRun(RunSpec{Workload: w, Machine: Straightened,
			Chain: translate.SWPredRAS, Timing: true, HotThreshold: hotThreshold}).Timing.IPC()
		row.Basic = MustRun(RunSpec{Workload: w, Machine: ILDPBasic,
			Chain: translate.SWPredRAS, Timing: true, PEs: 8, HotThreshold: hotThreshold}).Timing.IPC()
		mod := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, Timing: true, PEs: 8, HotThreshold: hotThreshold})
		row.Modified = mod.Timing.IPC()
		row.NativeIISA = mod.Timing.NativeIPC()
		return row
	})
}

// Fig9Row is one benchmark's modified-ISA ILDP IPC across machine
// parameters (paper Fig. 9).
type Fig9Row struct {
	Bench  string
	Acc8   float64 // 8 logical accumulators, 8 PEs
	Base   float64 // 4 accumulators, 8 PEs, 32KB D$, 0-cycle comm
	SmallD float64 // 8KB D$
	Comm2  float64 // 2-cycle global wire latency
	PE6    float64
	PE4    float64
}

// Fig9 reproduces the machine-parameter sensitivity sweep.
func Fig9(scale, hotThreshold int) []Fig9Row {
	return perWorkload(scale, func(w *workload.Spec) Fig9Row {
		base := RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, Timing: true, PEs: 8, HotThreshold: hotThreshold}
		run := func(mut func(*RunSpec)) float64 {
			s := base
			mut(&s)
			return MustRun(s).Timing.IPC()
		}
		return Fig9Row{
			Bench:  w.Name,
			Acc8:   run(func(s *RunSpec) { s.NumAcc = 8 }),
			Base:   run(func(s *RunSpec) {}),
			SmallD: run(func(s *RunSpec) { s.SmallD = true }),
			Comm2:  run(func(s *RunSpec) { s.CommLat = 2 }),
			PE6:    run(func(s *RunSpec) { s.PEs = 6 }),
			PE4:    run(func(s *RunSpec) { s.PEs = 4 }),
		}
	})
}

// OverheadRow is one benchmark's translation overhead (§4.2).
type OverheadRow struct {
	Bench     string
	PerInst   float64 // Alpha instructions per translated Alpha instruction
	Fragments int
	SrcInsts  int64
}

// Overhead reproduces the §4.2 translation-overhead measurement.
func Overhead(scale, hotThreshold int) []OverheadRow {
	return perWorkload(scale, func(w *workload.Spec) OverheadRow {
		out := MustRun(RunSpec{Workload: w, Machine: ILDPModified,
			Chain: translate.SWPredRAS, HotThreshold: hotThreshold})
		return OverheadRow{
			Bench:     w.Name,
			PerInst:   float64(out.VM.TranslateCost) / float64(out.VM.SrcInstsTranslated),
			Fragments: out.VM.Fragments,
			SrcInsts:  out.VM.SrcInstsTranslated,
		}
	})
}
