// Command ildpbench regenerates the tables and figures of Kim & Smith,
// "Dynamic Binary Translation for Accumulator-Oriented Architectures"
// (CGO 2003), over the synthetic SPEC CPU2000 INT stand-in workloads.
//
// Usage:
//
//	ildpbench -experiment=all -scale=1
//	ildpbench -experiment=fig8 -scale=2 -threshold=50
//	ildpbench -experiment=all -scale=2 -json > reports/experiments-scale2.json
//
// Both modes run the experiments through internal/report. Text mode
// prints the report's tables; -json emits the versioned
// machine-readable report that `ildpreport` consumes. Table 1 is static
// hardware parameters and exists only in text mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/ildp/accdbt/internal/report"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: table1, table2, overhead, fig4..fig9, fusion, threshold, superblock, vmcost, ras, variance, all")
	scale := flag.Int("scale", 1, "workload scale factor (loop trip multiplier)")
	threshold := flag.Int("threshold", 50, "hot-trace threshold (the paper uses 50)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text tables")
	flag.Parse()

	ids := report.ExperimentIDs()
	switch {
	case *experiment == "all":
	case *experiment == "table1" && !*jsonOut:
		fmt.Println(table1())
		return
	case slices.Contains(ids, *experiment):
		ids = []string{*experiment}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	r, err := report.Run(report.RunOptions{
		Scale: *scale, Threshold: *threshold, Experiments: ids,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpbench:", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := r.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ildpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *experiment == "all" {
		fmt.Println(table1())
	}
	for _, t := range r.Tables() {
		fmt.Println(t)
	}
}

func table1() string {
	rows := []string{
		"Table 1. Microarchitecture parameters",
		strings.Repeat("-", 72),
		"Branch prediction   16K-entry 12-bit-history g-share, 8-entry RAS,",
		"                    512-entry 4-way BTB, 3-cycle redirect latency",
		"I-cache             128B lines, direct-mapped, 32KB; <=3 basic blocks/cycle",
		"D-cache             64B lines, 4-way, 32KB, 2-cycle, random replacement",
		"                    (ILDP variant: 64B, 2-way, 8KB, replicated per PE)",
		"L2 cache            128B lines, 4-way, 1MB, 8-cycle, random replacement",
		"Memory              72-cycle latency, 4-cycle burst",
		"Reorder buffer      128 instructions; retire 4/cycle",
		"Issue (superscalar) 128-entry window, 4 symmetric FUs, oldest-first",
		"Issue (ILDP)        4/6/8 in-order PE FIFOs, 1 issue per PE per cycle",
		"Communication       0 or 2 cycle global wire latency between PEs",
	}
	return strings.Join(rows, "\n") + "\n"
}
