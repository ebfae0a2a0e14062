package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRun produces the deterministic part of a scale-1 report over
// the given experiments (Timings are wall-clock and excluded from golden
// comparisons).
func goldenRun(t *testing.T, exps ...string) *Report {
	t.Helper()
	r, err := Run(RunOptions{Scale: 1, Threshold: 50, Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	r.Timings = nil
	return r
}

// checkGolden compares a report's JSON and rendered block against
// testdata/<name>.json and testdata/<name>.block. Regenerate the files
// with UPDATE_GOLDEN=1 go test ./internal/report/.
func checkGolden(t *testing.T, name string, r *Report) {
	t.Helper()
	gotJSON, err := r.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		path string
		got  []byte
	}{
		{filepath.Join("testdata", name+".json"), gotJSON},
		{filepath.Join("testdata", name+".block"), []byte(r.RenderBlock("testdata"))},
	}
	for _, f := range files {
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("golden file %s updated", f.path)
			continue
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("output differs from %s (regenerate with UPDATE_GOLDEN=1 if intended)", f.path)
		}
	}
}

// TestGoldenReport pins the emitted JSON and the rendered block for a
// fixed (scale, threshold): the report pipeline must stay byte-stable.
func TestGoldenReport(t *testing.T) {
	checkGolden(t, "table2-scale1", goldenRun(t, "table2"))
}

// TestGoldenAllExperiments pins every experiment report.Run can execute
// at scale 1, threshold 50: each series key, unit, row order and
// aggregate row of every table, so a swapped or mislabelled column in
// any driver shows up as a diff.
func TestGoldenAllExperiments(t *testing.T) {
	checkGolden(t, "all-scale1", goldenRun(t, ExperimentIDs()...))
}

// TestRoundTrip checks emit → parse → re-emit is the identity on bytes.
func TestRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "table2-scale1.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("decode+encode is not the identity")
	}
}

func validReport() *Report {
	return &Report{
		Schema: SchemaVersion,
		Meta:   Meta{Generator: "test", Scale: 1, Threshold: 50, Chain: "sw_pred.ras", NumAcc: 4},
		Records: []Record{
			{Exp: "table2", Series: "dyn_b", Bench: "gzip", Value: 1.7, Unit: "ratio"},
			{Exp: "table2", Series: "dyn_m", Bench: "gzip", Value: 1.2, Unit: "ratio"},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"schema", func(r *Report) { r.Schema = 99 }, "schema"},
		{"generator", func(r *Report) { r.Meta.Generator = "" }, "generator"},
		{"scale", func(r *Report) { r.Meta.Scale = 0 }, "scale"},
		{"unknown exp", func(r *Report) { r.Records[0].Exp = "fig99" }, "unknown experiment"},
		{"unknown series", func(r *Report) { r.Records[0].Series = "nope" }, "unknown series"},
		{"empty bench", func(r *Report) { r.Records[0].Bench = "" }, "empty bench"},
		{"coverage", func(r *Report) { r.Records[1].Bench = "gcc" }, "different benches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mut(r)
			err := r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := validReport().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"schema":1,"bogus":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestSpliceAndCheckDoc(t *testing.T) {
	r := validReport()
	doc := []byte("# Title\n\n" + BeginMarker + "\nold\n" + EndMarker + "\n\ntail\n")
	block := r.RenderBlock("x.json")
	spliced, err := SpliceDoc(doc, block)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(spliced, []byte("# Title\n\n"+BeginMarker)) ||
		!bytes.HasSuffix(spliced, []byte("\ntail\n")) {
		t.Errorf("splice damaged surrounding text:\n%s", spliced)
	}
	if err := CheckDoc(spliced, r, "x.json"); err != nil {
		t.Errorf("freshly spliced doc reported stale: %v", err)
	}
	if err := CheckDoc(spliced, r, "other.json"); err == nil {
		t.Error("changed source not detected")
	}
	if err := CheckDoc(doc, r, "x.json"); err == nil {
		t.Error("stale doc not detected")
	}
	if _, err := SpliceDoc([]byte("no markers"), block); err == nil {
		t.Error("missing markers not detected")
	}
	if _, err := SpliceDoc(append(spliced, doc...), block); err == nil {
		t.Error("duplicate blocks not detected")
	}
}

func TestTrajectoryIdempotent(t *testing.T) {
	r := validReport()
	first, err := UpdateTrajectory(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	second, err := UpdateTrajectory(first, r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("applying the same report twice changed the trajectory")
	}
	// A different configuration appends rather than replaces.
	r2 := validReport()
	r2.Meta.Scale = 2
	third, err := UpdateTrajectory(second, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(third, []byte(`"scale": 1`)) || !bytes.Contains(third, []byte(`"scale": 2`)) {
		t.Errorf("expected both configurations present:\n%s", third)
	}
	h := Headline(r)
	if h["table2.dyn_b"] != 1.7 {
		t.Errorf("headline table2.dyn_b = %v, want 1.7", h["table2.dyn_b"])
	}
}

func TestExperimentIDsMatchDefs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(tableDefs) {
		t.Fatalf("ExperimentIDs has %d entries, want one per def (%d)", len(ids), len(tableDefs))
	}
	seen := map[string]bool{}
	for i, d := range tableDefs {
		if ids[i] != d.exp {
			t.Errorf("ExperimentIDs[%d] = %q, want %q", i, ids[i], d.exp)
		}
		if d.rows == nil {
			t.Errorf("%s: no driver", d.exp)
		}
		if seen[d.exp] {
			t.Errorf("duplicate experiment %q", d.exp)
		}
		seen[d.exp] = true
		keys := map[string]bool{}
		for _, c := range d.cols {
			if keys[c.key] {
				t.Errorf("%s: duplicate series %q", d.exp, c.key)
			}
			keys[c.key] = true
			if c.unit == "" {
				t.Errorf("%s/%s: missing unit", d.exp, c.key)
			}
		}
		if d.aggLabel == "" {
			for _, c := range d.cols {
				if c.agg != aggNone {
					t.Errorf("%s/%s: aggregate rule without aggregate row", d.exp, c.key)
				}
			}
		}
	}
}
