// Package report defines the machine-readable experiment report that
// `ildpbench -json` emits and `ildpreport` consumes: a versioned schema
// with one record per paper table/figure cell plus run metadata, a
// deterministic JSON encoding, one definition per table (its columns and
// its driver) shared by the runner, the validator and the text renderer,
// and the regeneration of EXPERIMENTS.md's generated block and the
// BENCH_experiments.json trajectory file.
//
// The point of the package is that "the reproduction's shape matches
// the paper" stops being prose: every cell of §4's tables and figures
// is a diffable record that CI can regenerate, validate against the
// schema, and compare against the committed documents.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// SchemaVersion is the current report schema. Consumers reject reports
// with a different version rather than guessing at field semantics.
const SchemaVersion = 1

// Meta describes the run that produced a report: everything needed to
// reproduce it with `ildpbench`.
type Meta struct {
	// Generator names the producing tool ("ildpbench").
	Generator string `json:"generator"`
	// Scale is the workload scale factor (loop trip multiplier).
	Scale int `json:"scale"`
	// Threshold is the hot-trace threshold (the paper uses 50).
	Threshold int `json:"threshold"`
	// Chain is the default chaining mode of the runs ("sw_pred.ras").
	Chain string `json:"chain"`
	// NumAcc is the default logical accumulator count (4).
	NumAcc int `json:"num_acc"`
	// Experiments lists the experiment IDs included, in run order.
	Experiments []string `json:"experiments"`
	// Workloads lists the benchmark stand-ins evaluated.
	Workloads []string `json:"workloads"`
}

// Record is one table/figure cell: experiment, series (column), bench
// (row), and the measured value. Units are documentation; aggregation
// rules live in the table definitions (defs.go).
type Record struct {
	// Exp is the experiment ID ("table2", "fig4", ... "variance").
	Exp string `json:"exp"`
	// Series is the stable column key within the experiment.
	Series string `json:"series"`
	// Bench is the row key: a workload name, or a sweep point rendered
	// as a string ("5", "25", "0").
	Bench string `json:"bench"`
	// Value is the measured cell value.
	Value float64 `json:"value"`
	// Unit documents the value's unit ("ratio", "ipc", "per1000",
	// "percent", "fraction", "insts", "count").
	Unit string `json:"unit"`
}

// Timing is one per-workload wall-clock measurement. Timings are
// machine-dependent and are excluded from document regeneration, the
// trajectory file, and golden comparisons; they exist so slow kernels
// are visible in the raw report.
type Timing struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// Report is a versioned machine-readable experiment report.
type Report struct {
	Schema  int      `json:"schema"`
	Meta    Meta     `json:"meta"`
	Records []Record `json:"records"`
	// Timings carries per-workload wall times (non-deterministic; see
	// Timing). Omitted from comparisons.
	Timings []Timing `json:"timings,omitempty"`
}

// Encode writes the report as indented JSON with a trailing newline.
// Encoding a decoded report reproduces the input byte-for-byte (the
// schema round-trip property the tests pin down).
func (r *Report) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EncodeBytes returns the canonical JSON encoding of the report.
func (r *Report) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a report and validates it against the schema.
func Decode(data []byte) (*Report, error) {
	var r Report
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: parse: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the report against the schema: version, metadata
// sanity, and that every record names a defined experiment and series
// with a finite value. It does not require every experiment to be
// present (partial runs are valid reports).
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("report: schema %d, want %d", r.Schema, SchemaVersion)
	}
	if r.Meta.Generator == "" {
		return fmt.Errorf("report: missing meta.generator")
	}
	if r.Meta.Scale < 1 {
		return fmt.Errorf("report: meta.scale %d < 1", r.Meta.Scale)
	}
	if r.Meta.Threshold < 1 {
		return fmt.Errorf("report: meta.threshold %d < 1", r.Meta.Threshold)
	}
	if len(r.Records) == 0 {
		return fmt.Errorf("report: no records")
	}
	type colSet map[string]bool
	defs := map[string]colSet{}
	for _, d := range tableDefs {
		set := colSet{}
		for _, c := range d.cols {
			set[c.key] = true
		}
		defs[d.exp] = set
	}
	for i, rec := range r.Records {
		cols, ok := defs[rec.Exp]
		if !ok {
			return fmt.Errorf("report: record %d: unknown experiment %q", i, rec.Exp)
		}
		if !cols[rec.Series] {
			return fmt.Errorf("report: record %d: unknown series %q for %q", i, rec.Series, rec.Exp)
		}
		if rec.Bench == "" {
			return fmt.Errorf("report: record %d: empty bench", i)
		}
		if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
			return fmt.Errorf("report: record %d (%s/%s/%s): non-finite value",
				i, rec.Exp, rec.Series, rec.Bench)
		}
	}
	// Within one experiment every series must cover the same benches:
	// a missing cell means the emitter and renderer disagree.
	byExp := map[string]map[string][]string{}
	for _, rec := range r.Records {
		if byExp[rec.Exp] == nil {
			byExp[rec.Exp] = map[string][]string{}
		}
		byExp[rec.Exp][rec.Series] = append(byExp[rec.Exp][rec.Series], rec.Bench)
	}
	for exp, series := range byExp {
		var want string
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			benches := append([]string(nil), series[k]...)
			sort.Strings(benches)
			got := fmt.Sprint(benches)
			if want == "" {
				want = got
			} else if got != want {
				return fmt.Errorf("report: experiment %q: series %q covers different benches than its siblings", exp, k)
			}
		}
	}
	return nil
}

// recordsFor returns the records of one experiment, in report order.
func (r *Report) recordsFor(exp string) []Record {
	var out []Record
	for _, rec := range r.Records {
		if rec.Exp == exp {
			out = append(out, rec)
		}
	}
	return out
}

// experiments returns the distinct experiment IDs present, in the
// canonical definition order.
func (r *Report) experiments() []string {
	present := map[string]bool{}
	for _, rec := range r.Records {
		present[rec.Exp] = true
	}
	var out []string
	for _, d := range tableDefs {
		if present[d.exp] {
			out = append(out, d.exp)
		}
	}
	return out
}
