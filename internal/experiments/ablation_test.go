package experiments

import (
	"testing"

	"github.com/ildp/accdbt/internal/stats"
)

func TestFusionAblation(t *testing.T) {
	rows := Fusion(testScale, testThreshold)
	var se, fe, si, fi []float64
	for _, r := range rows {
		// Fusion can only remove instructions, never add them.
		if r.FusedExpand > r.SplitExpand+1e-9 {
			t.Errorf("%s: fusion increased expansion (%.2f -> %.2f)",
				r.Bench, r.SplitExpand, r.FusedExpand)
		}
		// Static footprint shrinks too (fewer instructions beats the wider
		// displaced-memory encodings).
		if r.FusedStaticB > r.SplitStaticB+1e-9 {
			t.Errorf("%s: fusion grew static code (%.2f -> %.2f)",
				r.Bench, r.SplitStaticB, r.FusedStaticB)
		}
		se = append(se, r.SplitExpand)
		fe = append(fe, r.FusedExpand)
		si = append(si, r.SplitIPC)
		fi = append(fi, r.FusedIPC)
	}
	// The paper conjectures a meaningful instruction-count reduction; the
	// memory-heavy stand-ins must show it in aggregate.
	if stats.Mean(fe) > 0.97*stats.Mean(se) {
		t.Errorf("fusion barely reduced expansion: %.3f vs %.3f",
			stats.Mean(fe), stats.Mean(se))
	}
	// And the IPC should not get worse overall.
	if stats.GeoMean(fi) < 0.98*stats.GeoMean(si) {
		t.Errorf("fusion hurt IPC: %.2f vs %.2f", stats.GeoMean(fi), stats.GeoMean(si))
	}
	// mcf (pointer chasing with displacements) benefits the most.
	for _, r := range rows {
		if r.Bench == "mcf" && r.FusedExpand > 0.85*r.SplitExpand {
			t.Errorf("mcf should benefit strongly from fusion: %.2f -> %.2f",
				r.SplitExpand, r.FusedExpand)
		}
	}
}

func TestThresholdAblation(t *testing.T) {
	rows := Threshold(testScale, []int{5, 50, 200})
	if len(rows) != 3 {
		t.Fatal("wrong row count")
	}
	// Lower thresholds translate a larger fraction at a higher per-V-inst
	// translation cost.
	if !(rows[0].TransFraction >= rows[1].TransFraction &&
		rows[1].TransFraction >= rows[2].TransFraction) {
		t.Errorf("translated fraction not monotone: %+v", rows)
	}
	if !(rows[0].CostShare >= rows[1].CostShare && rows[1].CostShare >= rows[2].CostShare) {
		t.Errorf("cost share not monotone: %+v", rows)
	}
	for _, r := range rows {
		if r.TransFraction < 0.5 {
			t.Errorf("threshold %d: translated fraction %.2f too low", r.Threshold, r.TransFraction)
		}
	}
}

func TestSuperblockAblation(t *testing.T) {
	rows := Superblock(testScale, testThreshold, []int{25, 200})
	if len(rows) != 2 {
		t.Fatal("wrong row count")
	}
	// Tiny superblocks cannot be faster than the baseline size.
	if rows[0].IPC > 1.1*rows[1].IPC {
		t.Errorf("25-inst superblocks (%.2f IPC) beat 200 (%.2f)", rows[0].IPC, rows[1].IPC)
	}
	for _, r := range rows {
		if r.Fragments == 0 {
			t.Errorf("size %d: no fragments", r.MaxSize)
		}
	}
}

func TestVMCost(t *testing.T) {
	rows := VMCost(testScale, 50)
	if len(rows) != 12 {
		t.Fatal("row count")
	}
	var perSrc []float64
	for _, r := range rows {
		if r.InterpInsts == 0 || r.TransVInsts == 0 {
			t.Errorf("%s: empty mode split", r.Bench)
		}
		perSrc = append(perSrc, r.InterpPerSrc)
	}
	// §4.1: threshold 50 at ~20 instructions per interpretation is about
	// 1,000 target instructions per source instruction.
	m := stats.Mean(perSrc)
	if m < 600 || m > 2500 {
		t.Errorf("interpretation cost per source instruction %.0f, want ~1000", m)
	}
}

func TestRASSweep(t *testing.T) {
	rows := RASSweep(testScale, testThreshold, []int{2, 16})
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	// A 2-entry RAS cannot beat a 16-entry RAS on nested calls.
	if rows[0].HitRate > rows[1].HitRate+1e-9 {
		t.Errorf("hit rate not monotone: %.2f vs %.2f", rows[0].HitRate, rows[1].HitRate)
	}
	if rows[0].IPC > rows[1].IPC*1.02 {
		t.Errorf("small RAS should not win: %.2f vs %.2f", rows[0].IPC, rows[1].IPC)
	}
	if rows[1].HitRate < 0.9 {
		t.Errorf("16-entry RAS hit rate %.2f too low on call-heavy kernels", rows[1].HitRate)
	}
}

func TestVarianceAcrossSeeds(t *testing.T) {
	rows := Variance(testScale, testThreshold, []uint64{0, 1, 2})
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	// Perturbed datasets must actually perturb something...
	if rows[0].DynB == rows[1].DynB && rows[0].CopyPctB == rows[1].CopyPctB &&
		rows[0].DynM == rows[1].DynM {
		t.Error("seeds produced identical statistics; seeding is not wired through")
	}
	// ...but the headline metrics are structural: spread stays small and
	// the Basic > Modified ordering holds for every dataset.
	var dynM []float64
	for _, r := range rows {
		dynM = append(dynM, r.DynM)
	}
	if sp := stats.Spread(dynM); sp > 0.15 {
		t.Errorf("modified expansion spread %.3f too large across datasets", sp)
	}
	for _, r := range rows {
		if r.DynB <= r.DynM {
			t.Errorf("seed %d: basic %.2f <= modified %.2f", r.Seed, r.DynB, r.DynM)
		}
		if r.CopyPctB <= r.CopyPctM {
			t.Errorf("seed %d: copy%% ordering broken", r.Seed)
		}
	}
}
