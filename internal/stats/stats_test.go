package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f, want 4", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-9 {
		t.Errorf("GeoMean(5) = %f", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %f, want 0", got)
	}
	// Non-positive values are ignored, not poisoned.
	if got := GeoMean([]float64{0, -1, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean with non-positives = %f, want 4", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Mean = %f", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 3, 2}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Spread(1,3,2) = %f, want 1", got)
	}
	if Spread(nil) != 0 || Spread([]float64{-1, 1}) != 0 {
		t.Error("Spread with no values or a zero mean != 0")
	}
}

// Property: GeoMean <= Mean for positive inputs (AM-GM inequality).
func TestAMGMProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "name", "x", "y")
	tb.Row("alpha", 1.2345, 100.0)
	tb.Row("b", 0.5, 12.34)
	out := tb.String()
	if !strings.Contains(out, "T\n") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	// Columns align: every row has the same rendered width.
	w := len(lines[1])
	for _, l := range lines[3:] {
		if len(l) != w {
			t.Errorf("misaligned row %q (want width %d)", l, w)
		}
	}
	if !strings.Contains(out, "1.23") || !strings.Contains(out, "100") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
}
