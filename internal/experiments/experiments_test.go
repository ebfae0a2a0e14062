package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/stats"
	"github.com/ildp/accdbt/internal/workload"
)

// The experiment tests encode the paper's qualitative findings — who wins,
// in which direction, and roughly by how much — over the synthetic
// workloads at test scale. Thresholds are deliberately loose: they assert
// orderings and coarse magnitudes, not exact numbers.

const (
	testScale     = 1
	testThreshold = 25
)

func TestTable2Shape(t *testing.T) {
	rows := Table2(testScale, testThreshold)
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	var db, dm, cb, cm, ov []float64
	for _, r := range rows {
		// Basic must expand more than modified, for every benchmark.
		if r.RelDynB <= r.RelDynM {
			t.Errorf("%s: basic %.2f <= modified %.2f dynamic expansion", r.Bench, r.RelDynB, r.RelDynM)
		}
		// Copy share: basic far above modified (17.7%% vs 3.1%% in the paper).
		if r.CopyPctB <= r.CopyPctM {
			t.Errorf("%s: basic copy%% %.1f <= modified %.1f", r.Bench, r.CopyPctB, r.CopyPctM)
		}
		if r.RelStaticB <= 1.0 || r.RelStaticM <= 1.0 {
			t.Errorf("%s: static expansion below 1.0 (B=%.2f M=%.2f)", r.Bench, r.RelStaticB, r.RelStaticM)
		}
		// Modified static footprint beats basic overall despite wider
		// encodings (copies saved vs bits added can tie on copy-light
		// benchmarks, so allow a small per-benchmark tolerance).
		if r.RelStaticM > r.RelStaticB*1.03 {
			t.Errorf("%s: modified static %.2f >> basic %.2f", r.Bench, r.RelStaticM, r.RelStaticB)
		}
		db = append(db, r.RelDynB)
		dm = append(dm, r.RelDynM)
		cb = append(cb, r.CopyPctB)
		cm = append(cm, r.CopyPctM)
		ov = append(ov, r.Overhead)
	}
	// Averages in the paper's ballpark (basic 1.60, modified 1.36, copies
	// 17.7/3.1, overhead ~1125): our denser kernels amplify expansion, so
	// allow generous bands while still rejecting nonsense.
	if m := stats.Mean(dm); m < 1.1 || m > 1.9 {
		t.Errorf("modified dynamic expansion mean %.2f outside [1.1, 1.9]", m)
	}
	if m := stats.Mean(db); m < 1.4 || m > 2.6 {
		t.Errorf("basic dynamic expansion mean %.2f outside [1.4, 2.6]", m)
	}
	if m := stats.Mean(cm); m > 16 {
		t.Errorf("modified copy%% mean %.1f too high", m)
	}
	if m := stats.Mean(cb); m < 15 || m > 45 {
		t.Errorf("basic copy%% mean %.1f outside [15, 45]", m)
	}
	if m := stats.Mean(ov); m < 500 || m > 2200 {
		t.Errorf("translation overhead mean %.0f outside O(1000)", m)
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4(testScale, testThreshold)
	var np, sp, ras []float64
	for _, r := range rows {
		np = append(np, r.NoPred)
		sp = append(sp, r.SWPred)
		ras = append(ras, r.SWPredRAS)
	}
	// no_pred must mispredict substantially more than sw_pred on average;
	// the dual-address RAS must be at least as good as sw_pred overall.
	if stats.Mean(np) < 1.2*stats.Mean(sp) {
		t.Errorf("no_pred (%.1f) not clearly worse than sw_pred (%.1f)",
			stats.Mean(np), stats.Mean(sp))
	}
	if stats.Mean(ras) > 1.15*stats.Mean(sp) {
		t.Errorf("sw_pred.ras (%.1f) worse than sw_pred (%.1f)",
			stats.Mean(ras), stats.Mean(sp))
	}
	// The indirect-heavy stand-ins show the dramatic gap.
	for _, r := range rows {
		if r.Bench == "vortex" || r.Bench == "eon" {
			if r.NoPred < 3*r.SWPredRAS {
				t.Errorf("%s: no_pred %.1f should dwarf sw_pred.ras %.1f",
					r.Bench, r.NoPred, r.SWPredRAS)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows := Fig5(testScale, testThreshold)
	var np, sp, ras []float64
	for _, r := range rows {
		// Expansion is monotone across chaining modes for every benchmark.
		if r.NoPred < r.SWPred-1e-9 || r.SWPred < r.SWPredRAS-1e-9 {
			t.Errorf("%s: expansion not monotone: %.2f %.2f %.2f",
				r.Bench, r.NoPred, r.SWPred, r.SWPredRAS)
		}
		np = append(np, r.NoPred)
		sp = append(sp, r.SWPred)
		ras = append(ras, r.SWPredRAS)
		// Return-heavy vortex shows the RAS benefit most.
		if r.Bench == "vortex" && r.SWPred < 1.15*r.SWPredRAS {
			t.Errorf("vortex: RAS should cut return chaining (%.2f vs %.2f)",
				r.SWPred, r.SWPredRAS)
		}
	}
	if stats.Mean(ras) < 1.0 || stats.Mean(ras) > 1.6 {
		t.Errorf("sw_pred.ras expansion mean %.2f outside [1.0, 1.6]", stats.Mean(ras))
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6(testScale, testThreshold)
	var origRAS, strRAS, strNo []float64
	for _, r := range rows {
		origRAS = append(origRAS, r.OrigRAS)
		strRAS = append(strRAS, r.StraightRAS)
		strNo = append(strNo, r.StraightNoRAS)
	}
	gOrig := stats.GeoMean(origRAS)
	gStrRAS := stats.GeoMean(strRAS)
	gStrNo := stats.GeoMean(strNo)
	// Straightened with the dual RAS performs about the same as original
	// with RAS (within 15%), and beats straightened without RAS.
	if gStrRAS < 0.85*gOrig {
		t.Errorf("straightened+RAS %.2f should be near original %.2f", gStrRAS, gOrig)
	}
	if gStrRAS < gStrNo {
		t.Errorf("RAS did not help straightened code: %.2f vs %.2f", gStrRAS, gStrNo)
	}
}

func TestFig7Shape(t *testing.T) {
	rows := Fig7(testScale, testThreshold)
	for _, r := range rows {
		total := 0.0
		for _, f := range r.Fractions {
			total += f
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%s: fractions sum to %.3f", r.Bench, total)
		}
		g := r.GlobalFraction()
		if g <= 0 || g >= 0.95 {
			t.Errorf("%s: global fraction %.2f implausible", r.Bench, g)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8(testScale, testThreshold)
	var orig, str, basic, mod, native []float64
	for _, r := range rows {
		orig = append(orig, r.Original)
		str = append(str, r.Straight)
		basic = append(basic, r.Basic)
		mod = append(mod, r.Modified)
		native = append(native, r.NativeIISA)
		// Basic never beats modified on the same hardware.
		if r.Basic > r.Modified*1.02 {
			t.Errorf("%s: basic IPC %.2f beats modified %.2f", r.Bench, r.Basic, r.Modified)
		}
	}
	gOrig, gStr := stats.GeoMean(orig), stats.GeoMean(str)
	gBasic, gMod := stats.GeoMean(basic), stats.GeoMean(mod)
	gNative := stats.GeoMean(native)
	if gBasic > gMod {
		t.Errorf("basic geomean %.2f beats modified %.2f", gBasic, gMod)
	}
	// Straightened superscalar is near original (code straightening plus
	// chaining roughly cancel, §4.3/Fig 6).
	if gStr < 0.8*gOrig || gStr > 1.2*gOrig {
		t.Errorf("straightened %.2f vs original %.2f outside band", gStr, gOrig)
	}
	// The modified accumulator ISA pays an IPC cost against the
	// straightened superscalar (15%% in the paper; our denser kernels
	// amplify it) but stays within striking distance.
	if gMod > gStr {
		t.Errorf("modified %.2f should not beat the ideal OoO %.2f", gMod, gStr)
	}
	if gMod < 0.5*gStr {
		t.Errorf("modified %.2f lost more than half of %.2f", gMod, gStr)
	}
	// The native I-ISA IPC is much higher than the V-ISA IPC: the
	// expansion offsets it (§4.5).
	if gNative < 1.2*gMod {
		t.Errorf("native I-ISA IPC %.2f should clearly exceed V-ISA IPC %.2f", gNative, gMod)
	}
}

func TestFig9Shape(t *testing.T) {
	rows := Fig9(testScale, testThreshold)
	var a8, base, sd, c2, p6, p4 []float64
	for _, r := range rows {
		a8 = append(a8, r.Acc8)
		base = append(base, r.Base)
		sd = append(sd, r.SmallD)
		c2 = append(c2, r.Comm2)
		p6 = append(p6, r.PE6)
		p4 = append(p4, r.PE4)
	}
	g := stats.GeoMean
	// Eight accumulators help a little (the paper reports 11%).
	if g(a8) < g(base)*0.99 {
		t.Errorf("8 accumulators (%.2f) should not lose to 4 (%.2f)", g(a8), g(base))
	}
	// A quarter-size D-cache barely matters for these kernels.
	if g(sd) < 0.85*g(base) {
		t.Errorf("8KB D$ (%.2f) lost too much vs 32KB (%.2f)", g(sd), g(base))
	}
	// Two-cycle wire latency costs a modest amount (3.4%% in the paper;
	// our tighter loop-carried chains amplify it).
	if g(c2) >= g(base) || g(c2) < 0.7*g(base) {
		t.Errorf("2-cycle comm %.2f vs base %.2f outside expected band", g(c2), g(base))
	}
	// PE scaling: 6 PEs hold up fairly well; 4 PEs lag clearly (18%% in
	// the paper).
	if g(p6) < g(p4) {
		t.Errorf("6 PEs (%.2f) should beat 4 PEs (%.2f)", g(p6), g(p4))
	}
	if g(p4) > 0.95*g(base) {
		t.Errorf("4 PEs (%.2f) should clearly lag 8 PEs (%.2f)", g(p4), g(base))
	}
}

func TestOverheadShape(t *testing.T) {
	rows := Overhead(testScale, testThreshold)
	var per []float64
	for _, r := range rows {
		if r.Fragments == 0 {
			t.Errorf("%s: no fragments", r.Bench)
		}
		per = append(per, r.PerInst)
	}
	m := stats.Mean(per)
	// The paper's average is 1,125 Alpha instructions per translated
	// instruction — a quarter of DAISY's 4,000+.
	if m < 600 || m > 2000 {
		t.Errorf("overhead mean %.0f not O(1000)", m)
	}
	if m > 4000 {
		t.Errorf("overhead %.0f is VLIW-class; the whole point is to be below it", m)
	}
}

func TestRunSpecErrors(t *testing.T) {
	w, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunSpec{Workload: w, Machine: Machine(99)}); err == nil {
		t.Error("bad machine accepted")
	}
}

func TestParseMachine(t *testing.T) {
	all := []Machine{Original, Straightened, ILDPBasic, ILDPModified}
	for _, m := range all {
		got, err := ParseMachine(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMachine(%q) = %v, %v; want %v", m, got, err, m)
		}
	}
	_, err := ParseMachine("ildp")
	if err == nil || !strings.Contains(err.Error(), "original, straightened, ildp-basic, ildp-modified") {
		t.Errorf("unknown machine: err = %v, want the valid names listed", err)
	}

	if got, err := ParseMachines("all"); err != nil || !reflect.DeepEqual(got, all) {
		t.Errorf(`ParseMachines("all") = %v, %v; want %v`, got, err, all)
	}
	want := []Machine{ILDPModified, Original}
	if got, err := ParseMachines("ildp-modified, original"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ParseMachines(list) = %v, %v; want %v", got, err, want)
	}
	if _, err := ParseMachines("original,bogus"); err == nil || !strings.Contains(err.Error(), "or all") {
		t.Errorf("ParseMachines with an unknown name: err = %v, want the valid names and all", err)
	}
}
