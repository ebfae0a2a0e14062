package report

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/workload"
)

// Default sweep points for the parameterised ablations, bound to their
// drivers in defs.go.
var (
	// DefaultThresholdSweep is the hot-trace threshold ablation's sweep.
	DefaultThresholdSweep = []int{5, 10, 25, 50, 100, 200}
	// DefaultSuperblockSweep is the maximum-superblock-size sweep.
	DefaultSuperblockSweep = []int{25, 50, 100, 200}
	// DefaultRASSweep is the dual-address RAS size sweep.
	DefaultRASSweep = []int{2, 4, 8, 16, 32}
	// DefaultVarianceSeeds are the perturbed data seeds of the dataset
	// sensitivity study (seed 0 is the canonical dataset).
	DefaultVarianceSeeds = []uint64{0, 1, 2, 3, 4}
)

// RunOptions parameterises Run.
type RunOptions struct {
	// Scale is the workload scale factor (loop trip multiplier).
	Scale int
	// Threshold is the hot-trace threshold (the paper uses 50).
	Threshold int
	// Experiments lists the experiment IDs to run, in order. Use
	// ExperimentIDs() for all of them. "table1" is static hardware
	// parameters, not a measurement, and is not a valid ID here.
	Experiments []string
	// Metrics, when non-nil, collects per-workload wall times (surfaced
	// as the report's Timings) and the drivers' lifecycle metrics. When
	// nil Run makes a private registry so Timings are still populated.
	Metrics *metrics.Registry
}

// Run executes the requested experiments through their tableDefs
// drivers and assembles the versioned report `ildpbench` prints: as
// Tables in text mode, encoded with -json. The Records are deterministic
// for a fixed (scale, threshold); Timings are wall-clock and are not.
func Run(opts RunOptions) (*Report, error) {
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	if opts.Threshold < 1 {
		opts.Threshold = 50
	}
	if len(opts.Experiments) == 0 {
		opts.Experiments = ExperimentIDs()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	experiments.SetMetrics(reg)
	defer experiments.SetMetrics(nil)

	var recs []Record
	for _, exp := range opts.Experiments {
		d, ok := defFor(exp)
		if !ok {
			return nil, fmt.Errorf("report: unknown experiment %q", exp)
		}
		for _, rw := range d.rows(opts) {
			for i, c := range d.cols {
				recs = append(recs, Record{Exp: exp, Series: c.key, Bench: rw.bench, Value: rw.vals[i], Unit: c.unit})
			}
		}
	}

	r := &Report{
		Schema: SchemaVersion,
		Meta: Meta{
			Generator:   "ildpbench",
			Scale:       opts.Scale,
			Threshold:   opts.Threshold,
			Chain:       "sw_pred.ras",
			NumAcc:      ildp.DefaultAccumulators,
			Experiments: append([]string(nil), opts.Experiments...),
			Workloads:   workload.Names(),
		},
		Records: recs,
		Timings: timingsFrom(reg),
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// timingsFrom extracts the per-workload wall times that the experiment
// drivers accumulate into "experiments.wall_ms.<bench>" gauges.
func timingsFrom(reg *metrics.Registry) []Timing {
	const prefix = "experiments.wall_ms."
	gauges := reg.GaugesWithPrefix(prefix)
	names := make([]string, 0, len(gauges))
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Timing
	for _, name := range names {
		out = append(out, Timing{
			Name:   strings.TrimPrefix(name, prefix),
			Millis: gauges[name],
		})
	}
	return out
}
