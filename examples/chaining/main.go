// Chaining compares the three fragment-chaining implementations of §4.3
// on an indirect-jump-heavy interpreter workload (the perlbmk stand-in):
// always-dispatch (no_pred), software jump-target prediction (sw_pred),
// and software prediction plus the dual-address return address stack
// (sw_pred.ras). It reports dynamic instruction expansion, dispatch
// traffic, and timing-model mispredictions — the mechanisms behind the
// paper's Figures 4 and 5.
package main

import (
	"fmt"

	"github.com/ildp/accdbt"
)

func main() {
	modes := []accdbt.ChainMode{accdbt.NoPred, accdbt.SWPred, accdbt.SWPredRAS}

	for _, wl := range []string{"perlbmk", "vortex"} {
		fmt.Printf("workload %s:\n", wl)
		fmt.Println("  mode            expansion  dispatch-runs  sw-pred-hit%  ras-hit%  mispred/1000  V-IPC")
		for _, m := range modes {
			w, err := accdbt.WorkloadByName(wl, 1)
			if err != nil {
				panic(err)
			}
			out, err := accdbt.RunExperiment(accdbt.RunSpec{
				Workload: w, Machine: accdbt.MachineILDPModified,
				Chain: m, Timing: true, HotThreshold: 25,
			})
			if err != nil {
				panic(err)
			}
			s := out.VM
			exp := float64(s.TransIInsts) / float64(s.TransVInsts)
			swTotal := s.SWPredHits + s.SWPredMisses
			swPct := 0.0
			if swTotal > 0 {
				swPct = 100 * float64(s.SWPredHits) / float64(swTotal)
			}
			rasTotal := s.RASHits + s.RASMisses
			rasPct := 0.0
			if rasTotal > 0 {
				rasPct = 100 * float64(s.RASHits) / float64(rasTotal)
			}
			fmt.Printf("  %-14v      %.2fx  %13d  %11.1f  %8.1f  %12.2f  %5.2f\n",
				m, exp, s.DispatchRuns, swPct, rasPct,
				out.Timing.MispredictsPer1000(), out.Timing.IPC())
		}
		fmt.Println()
	}
	fmt.Println("no_pred funnels every indirect jump through the 20-instruction dispatch")
	fmt.Println("routine; software prediction short-circuits the common target; the dual-")
	fmt.Println("address RAS removes the compare-and-branch sequence from returns entirely.")
}
