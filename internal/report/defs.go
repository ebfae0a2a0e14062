package report

import (
	"fmt"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/stats"
)

// aggKind selects the aggregate-row function for one column.
type aggKind uint8

const (
	aggNone   aggKind = iota // blank cell in the aggregate row
	aggMean                  // arithmetic mean
	aggGeo                   // geometric mean
	aggSpread                // (max-min)/mean, the variance study's row
)

// columnDef describes one series of an experiment: its stable record
// key, the rendered column header, the unit recorded on emitted cells,
// how the aggregate row summarises it, and whether values are integral
// counts (rendered without decimals).
type columnDef struct {
	key     string
	header  string
	unit    string
	agg     aggKind
	integer bool
}

// tableDef describes one experiment's table: ID, rendered title, the
// row-key column header, the aggregate-row label ("" = no aggregate
// row), the columns in render order, and the driver that measures it.
// The same definitions drive the runner, the validator, and the
// renderer, so the three cannot drift apart.
type tableDef struct {
	exp       string
	title     string
	rowHeader string
	aggLabel  string
	cols      []columnDef
	rows      func(RunOptions) []row
}

// row is one table row: its key (a workload name or a sweep point) and
// its values in cols order.
type row struct {
	bench string
	vals  []float64
}

// rowsOf adapts a typed experiments driver to a tableDef's rows: drive
// runs the experiment at a (scale, threshold), cells turns one typed
// row into a row.
func rowsOf[T any](drive func(scale, threshold int) []T, cells func(T) row) func(RunOptions) []row {
	return func(o RunOptions) []row {
		typed := drive(o.Scale, o.Threshold)
		out := make([]row, len(typed))
		for i, t := range typed {
			out[i] = cells(t)
		}
		return out
	}
}

// tableDefs lists every experiment in canonical render order.
var tableDefs = []tableDef{
	{
		exp:       "table2",
		title:     "Table 2. Translated instruction statistics",
		rowHeader: "bench",
		aggLabel:  "Avg.",
		cols: []columnDef{
			{key: "dyn_b", header: "dyn B", unit: "ratio", agg: aggMean},
			{key: "dyn_m", header: "dyn M", unit: "ratio", agg: aggMean},
			{key: "copy_pct_b", header: "copy% B", unit: "percent", agg: aggMean},
			{key: "copy_pct_m", header: "copy% M", unit: "percent", agg: aggMean},
			{key: "static_b", header: "static B", unit: "ratio", agg: aggMean},
			{key: "static_m", header: "static M", unit: "ratio", agg: aggMean},
			{key: "xlate_inst", header: "xlate inst", unit: "insts", agg: aggMean},
		},
		rows: rowsOf(experiments.Table2, func(r experiments.Table2Row) row {
			return row{r.Bench, []float64{r.RelDynB, r.RelDynM, r.CopyPctB, r.CopyPctM,
				r.RelStaticB, r.RelStaticM, r.Overhead}}
		}),
	},
	{
		exp:       "overhead",
		title:     "Translation overhead (Alpha instructions to translate one Alpha instruction, §4.2)",
		rowHeader: "bench",
		aggLabel:  "Avg.",
		cols: []columnDef{
			{key: "insts_per_inst", header: "insts/inst", unit: "insts", agg: aggMean},
			{key: "fragments", header: "fragments", unit: "count", agg: aggNone, integer: true},
			{key: "src_insts", header: "src insts", unit: "insts", agg: aggNone, integer: true},
		},
		rows: rowsOf(experiments.Overhead, func(r experiments.OverheadRow) row {
			return row{r.Bench, []float64{r.PerInst, float64(r.Fragments), float64(r.SrcInsts)}}
		}),
	},
	{
		exp:       "fig4",
		title:     "Figure 4. Branch/jump mispredictions per 1000 instructions",
		rowHeader: "bench",
		aggLabel:  "Avg.",
		cols: []columnDef{
			{key: "original", header: "original", unit: "per1000", agg: aggMean},
			{key: "no_pred", header: "no_pred", unit: "per1000", agg: aggMean},
			{key: "sw_pred_no_ras", header: "sw_pred.no_ras", unit: "per1000", agg: aggMean},
			{key: "sw_pred_ras", header: "sw_pred.ras", unit: "per1000", agg: aggMean},
		},
		rows: rowsOf(experiments.Fig4, func(r experiments.Fig4Row) row {
			return row{r.Bench, []float64{r.Original, r.NoPred, r.SWPred, r.SWPredRAS}}
		}),
	},
	{
		exp:       "fig5",
		title:     "Figure 5. Relative instruction count (straightened Alpha / original)",
		rowHeader: "bench",
		aggLabel:  "Avg.",
		cols: []columnDef{
			{key: "no_pred", header: "no_pred", unit: "ratio", agg: aggMean},
			{key: "sw_pred_no_ras", header: "sw_pred.no_ras", unit: "ratio", agg: aggMean},
			{key: "sw_pred_ras", header: "sw_pred.ras", unit: "ratio", agg: aggMean},
		},
		rows: rowsOf(experiments.Fig5, func(r experiments.Fig5Row) row {
			return row{r.Bench, []float64{r.NoPred, r.SWPred, r.SWPredRAS}}
		}),
	},
	{
		exp:       "fig6",
		title:     "Figure 6. IPC impact of code straightening and hardware RAS",
		rowHeader: "bench",
		aggLabel:  "GeoMean",
		cols: []columnDef{
			{key: "orig_no_ras", header: "orig/noRAS", unit: "ipc", agg: aggGeo},
			{key: "orig_ras", header: "orig/RAS", unit: "ipc", agg: aggGeo},
			{key: "straight_no_ras", header: "straight/noRAS", unit: "ipc", agg: aggGeo},
			{key: "straight_ras", header: "straight/RAS", unit: "ipc", agg: aggGeo},
		},
		rows: rowsOf(experiments.Fig6, func(r experiments.Fig6Row) row {
			return row{r.Bench, []float64{r.OrigNoRAS, r.OrigRAS, r.StraightNoRAS, r.StraightRAS}}
		}),
	},
	{
		exp:       "fig7",
		title:     "Figure 7. Output register usage (fractions of producing instructions)",
		rowHeader: "bench",
		cols: []columnDef{
			{key: "no_user", header: "no-user", unit: "fraction"},
			{key: "no_user_global", header: "nouser>gbl", unit: "fraction"},
			{key: "local", header: "local", unit: "fraction"},
			{key: "local_global", header: "local>gbl", unit: "fraction"},
			{key: "temp", header: "temp", unit: "fraction"},
			{key: "comm", header: "comm", unit: "fraction"},
			{key: "liveout", header: "liveout", unit: "fraction"},
			{key: "global_pct", header: "global%", unit: "percent"},
		},
		rows: rowsOf(experiments.Fig7, func(r experiments.Fig7Row) row {
			f := r.Fractions
			return row{r.Bench, []float64{f[ildp.UsageNoUser], f[ildp.UsageNoUserGlobal],
				f[ildp.UsageLocal], f[ildp.UsageLocalGlobal], f[ildp.UsageTemp],
				f[ildp.UsageComm], f[ildp.UsageLiveOut], 100 * r.GlobalFraction()}}
		}),
	},
	{
		exp:       "fig8",
		title:     "Figure 8. IPC comparison (V-ISA instructions per cycle)",
		rowHeader: "bench",
		aggLabel:  "GeoMean",
		cols: []columnDef{
			{key: "original", header: "orig SS", unit: "ipc", agg: aggGeo},
			{key: "straightened", header: "straightened", unit: "ipc", agg: aggGeo},
			{key: "ildp_basic", header: "ILDP basic", unit: "ipc", agg: aggGeo},
			{key: "ildp_modified", header: "ILDP modified", unit: "ipc", agg: aggGeo},
			{key: "native_iisa", header: "native I-ISA", unit: "ipc", agg: aggGeo},
		},
		rows: rowsOf(experiments.Fig8, func(r experiments.Fig8Row) row {
			return row{r.Bench, []float64{r.Original, r.Straight, r.Basic, r.Modified, r.NativeIISA}}
		}),
	},
	{
		exp:       "fig9",
		title:     "Figure 9. IPC variation over machine parameters (modified ISA)",
		rowHeader: "bench",
		aggLabel:  "GeoMean",
		cols: []columnDef{
			{key: "acc8", header: "8 acc", unit: "ipc", agg: aggGeo},
			{key: "base", header: "base(4a/8PE/32K/0c)", unit: "ipc", agg: aggGeo},
			{key: "small_d", header: "8KB D$", unit: "ipc", agg: aggGeo},
			{key: "comm2", header: "2-cyc comm", unit: "ipc", agg: aggGeo},
			{key: "pe6", header: "6 PE", unit: "ipc", agg: aggGeo},
			{key: "pe4", header: "4 PE", unit: "ipc", agg: aggGeo},
		},
		rows: rowsOf(experiments.Fig9, func(r experiments.Fig9Row) row {
			return row{r.Bench, []float64{r.Acc8, r.Base, r.SmallD, r.Comm2, r.PE6, r.PE4}}
		}),
	},
	{
		exp:       "fusion",
		title:     "Ablation: unsplit memory operations (§4.5 extension, modified ISA)",
		rowHeader: "bench",
		aggLabel:  "Avg/GeoM",
		cols: []columnDef{
			{key: "expand_split", header: "expand split", unit: "ratio", agg: aggMean},
			{key: "expand_fused", header: "expand fused", unit: "ratio", agg: aggMean},
			{key: "ipc_split", header: "IPC split", unit: "ipc", agg: aggGeo},
			{key: "ipc_fused", header: "IPC fused", unit: "ipc", agg: aggGeo},
			{key: "static_split", header: "static split", unit: "ratio", agg: aggNone},
			{key: "static_fused", header: "static fused", unit: "ratio", agg: aggNone},
		},
		rows: rowsOf(experiments.Fusion, func(r experiments.FusionRow) row {
			return row{r.Bench, []float64{r.SplitExpand, r.FusedExpand, r.SplitIPC, r.FusedIPC,
				r.SplitStaticB, r.FusedStaticB}}
		}),
	},
	{
		exp:       "threshold",
		title:     "Ablation: hot-trace threshold (the paper uses 50)",
		rowHeader: "threshold",
		cols: []columnDef{
			{key: "trans_fraction", header: "translated frac", unit: "fraction"},
			{key: "cost_share", header: "xlate cost / V-inst", unit: "insts"},
			{key: "fragments", header: "fragments", unit: "count"},
		},
		rows: rowsOf(func(scale, _ int) []experiments.ThresholdRow {
			return experiments.Threshold(scale, DefaultThresholdSweep)
		}, func(r experiments.ThresholdRow) row {
			return row{fmt.Sprint(r.Threshold), []float64{r.TransFraction, r.CostShare, r.Fragments}}
		}),
	},
	{
		exp:       "superblock",
		title:     "Ablation: maximum superblock size (§4.1; the paper uses 200)",
		rowHeader: "max size",
		cols: []columnDef{
			{key: "ipc", header: "straightened IPC", unit: "ipc"},
			{key: "fragments", header: "fragments", unit: "count"},
			{key: "exits", header: "VM exits", unit: "count"},
		},
		rows: rowsOf(func(scale, threshold int) []experiments.SuperblockRow {
			return experiments.Superblock(scale, threshold, DefaultSuperblockSweep)
		}, func(r experiments.SuperblockRow) row {
			return row{fmt.Sprint(r.MaxSize), []float64{r.IPC, r.Fragments, r.Exits}}
		}),
	},
	{
		exp:       "vmcost",
		title:     "VM software overhead (§4.1-4.2): interpretation + translation",
		rowHeader: "bench",
		aggLabel:  "Avg.",
		cols: []columnDef{
			{key: "interp_insts", header: "interp insts", unit: "insts", agg: aggNone, integer: true},
			{key: "trans_v_insts", header: "trans V-insts", unit: "insts", agg: aggNone, integer: true},
			{key: "interp_cost", header: "interp cost", unit: "insts", agg: aggNone, integer: true},
			{key: "xlate_cost", header: "xlate cost", unit: "insts", agg: aggNone, integer: true},
			{key: "ovh_per_v", header: "ovh/V-inst", unit: "insts", agg: aggMean},
			{key: "interp_per_src", header: "interp/src", unit: "insts", agg: aggMean},
		},
		rows: rowsOf(experiments.VMCost, func(r experiments.VMCostRow) row {
			return row{r.Bench, []float64{float64(r.InterpInsts), float64(r.TransVInsts),
				float64(r.InterpCost), float64(r.TranslateCost), r.OverheadPerV, r.InterpPerSrc}}
		}),
	},
	{
		exp:       "ras",
		title:     "Ablation: dual-address RAS size (eon + vortex, modified ISA)",
		rowHeader: "entries",
		cols: []columnDef{
			{key: "hit_rate", header: "hit rate", unit: "fraction"},
			{key: "ipc", header: "IPC", unit: "ipc"},
			{key: "expansion", header: "expansion", unit: "ratio"},
		},
		rows: rowsOf(func(scale, threshold int) []experiments.RASRow {
			return experiments.RASSweep(scale, threshold, DefaultRASSweep)
		}, func(r experiments.RASRow) row {
			return row{fmt.Sprint(r.Size), []float64{r.HitRate, r.IPC, r.ExpandR}}
		}),
	},
	{
		exp:       "variance",
		title:     "Dataset sensitivity: Table 2 means across perturbed data seeds",
		rowHeader: "seed",
		aggLabel:  "spread",
		cols: []columnDef{
			{key: "dyn_b", header: "dyn B", unit: "ratio", agg: aggSpread},
			{key: "dyn_m", header: "dyn M", unit: "ratio", agg: aggSpread},
			{key: "copy_pct_b", header: "copy% B", unit: "percent", agg: aggSpread},
			{key: "copy_pct_m", header: "copy% M", unit: "percent", agg: aggSpread},
		},
		rows: rowsOf(func(scale, threshold int) []experiments.VarianceRow {
			return experiments.Variance(scale, threshold, DefaultVarianceSeeds)
		}, func(r experiments.VarianceRow) row {
			return row{fmt.Sprint(r.Seed), []float64{r.DynB, r.DynM, r.CopyPctB, r.CopyPctM}}
		}),
	},
}

// defFor returns the table definition for an experiment ID.
func defFor(exp string) (tableDef, bool) {
	for _, d := range tableDefs {
		if d.exp == exp {
			return d, true
		}
	}
	return tableDef{}, false
}

// ExperimentIDs returns every experiment ID report.Run can execute, in
// canonical order.
func ExperimentIDs() []string {
	out := make([]string, len(tableDefs))
	for i, d := range tableDefs {
		out[i] = d.exp
	}
	return out
}

// aggregate reduces a column's values per its aggregate kind.
func aggregate(kind aggKind, xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	switch kind {
	case aggMean:
		return stats.Mean(xs), true
	case aggGeo:
		return stats.GeoMean(xs), true
	case aggSpread:
		return stats.Spread(xs), true
	default:
		return 0, false
	}
}
