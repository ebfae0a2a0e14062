package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/stats"
)

// BeginMarker and EndMarker delimit the generated region in
// EXPERIMENTS.md. Everything between them (inclusive) is owned by
// `ildpreport -write` and is compared verbatim by `ildpreport -check`.
const (
	BeginMarker = "<!-- generated by ildpreport; do not hand-edit -->"
	EndMarker   = "<!-- end generated by ildpreport -->"
)

// RenderBlock renders the full generated region for a report: markers,
// a provenance line naming the source report, and the report's Tables
// inside one code fence, so the block is byte-identical to `ildpbench`'s
// text output for the same run.
func (r *Report) RenderBlock(source string) string {
	var b strings.Builder
	b.WriteString(BeginMarker + "\n")
	fmt.Fprintf(&b, "Generated from %s (%s, scale %d, threshold %d, chain %s, %d accumulators).\n",
		source, r.Meta.Generator, r.Meta.Scale, r.Meta.Threshold, r.Meta.Chain, r.Meta.NumAcc)
	b.WriteString("\n```\n")
	b.WriteString(strings.Join(r.Tables(), "\n"))
	b.WriteString("```\n")
	b.WriteString(EndMarker + "\n")
	return b.String()
}

// Tables renders every present experiment's table, in canonical order,
// through internal/stats.Table with the definitions of defs.go: the text
// `ildpbench` prints and RenderBlock fences.
func (r *Report) Tables() []string {
	var out []string
	for _, exp := range r.experiments() {
		d, _ := defFor(exp)
		out = append(out, renderTable(d, r.recordsFor(exp)))
	}
	return out
}

// renderTable renders one experiment's records as a text table with an
// optional aggregate row.
func renderTable(d tableDef, recs []Record) string {
	// Benches in first-seen order (the emitters write row-major, so this
	// is the driver's row order); cell values indexed by series+bench.
	var benches []string
	seen := map[string]bool{}
	val := map[string]map[string]float64{}
	for _, rec := range recs {
		if !seen[rec.Bench] {
			seen[rec.Bench] = true
			benches = append(benches, rec.Bench)
		}
		if val[rec.Series] == nil {
			val[rec.Series] = map[string]float64{}
		}
		val[rec.Series][rec.Bench] = rec.Value
	}

	headers := make([]string, 0, len(d.cols)+1)
	headers = append(headers, d.rowHeader)
	for _, c := range d.cols {
		headers = append(headers, c.header)
	}
	t := stats.NewTable(d.title, headers...)
	for _, bench := range benches {
		cells := make([]any, 0, len(d.cols)+1)
		cells = append(cells, bench)
		for _, c := range d.cols {
			v := val[c.key][bench]
			if c.integer {
				cells = append(cells, int64(v))
			} else {
				cells = append(cells, v)
			}
		}
		t.Row(cells...)
	}
	if d.aggLabel != "" {
		cells := make([]any, 0, len(d.cols)+1)
		cells = append(cells, d.aggLabel)
		for _, c := range d.cols {
			col := make([]float64, 0, len(benches))
			for _, bench := range benches {
				col = append(col, val[c.key][bench])
			}
			if v, ok := aggregate(c.agg, col); ok {
				cells = append(cells, v)
			} else {
				cells = append(cells, "")
			}
		}
		t.Row(cells...)
	}
	return t.String()
}

// SpliceDoc replaces the generated region of a document with block
// (which must carry its own markers, i.e. come from RenderBlock). The
// document must already contain exactly one marker pair.
func SpliceDoc(doc []byte, block string) ([]byte, error) {
	begin, end, err := findBlock(doc)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Write(doc[:begin])
	out.WriteString(block)
	out.Write(doc[end:])
	return out.Bytes(), nil
}

// ExtractBlock returns the generated region of a document, markers
// included.
func ExtractBlock(doc []byte) (string, error) {
	begin, end, err := findBlock(doc)
	if err != nil {
		return "", err
	}
	return string(doc[begin:end]), nil
}

// findBlock locates [begin, end) spanning the marker pair, where end is
// just past EndMarker's trailing newline (or the marker itself at EOF).
func findBlock(doc []byte) (int, int, error) {
	begin := bytes.Index(doc, []byte(BeginMarker))
	if begin < 0 {
		return 0, 0, fmt.Errorf("report: document has no %q marker", BeginMarker)
	}
	rest := doc[begin:]
	endRel := bytes.Index(rest, []byte(EndMarker))
	if endRel < 0 {
		return 0, 0, fmt.Errorf("report: document has no %q marker", EndMarker)
	}
	end := begin + endRel + len(EndMarker)
	if end < len(doc) && doc[end] == '\n' {
		end++
	}
	if bytes.Contains(doc[end:], []byte(BeginMarker)) {
		return 0, 0, fmt.Errorf("report: document has more than one generated block")
	}
	return begin, end, nil
}

// CheckDoc verifies that a document's generated region matches what the
// report renders. A mismatch error names the first differing line so
// `make experiments` fixes are obvious.
func CheckDoc(doc []byte, r *Report, source string) error {
	got, err := ExtractBlock(doc)
	if err != nil {
		return err
	}
	want := r.RenderBlock(source)
	if got == want {
		return nil
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			return fmt.Errorf("report: generated block is stale at line %d:\n  document: %q\n  report:   %q\nregenerate with `make experiments`", i+1, g, w)
		}
	}
	return fmt.Errorf("report: generated block is stale; regenerate with `make experiments`")
}

// TrajectoryEntry is one run's headline aggregates in
// BENCH_experiments.json. Entries are keyed by (scale, threshold):
// re-running the same configuration replaces its entry, so the file
// tracks the current numbers per configuration rather than appending
// history.
type TrajectoryEntry struct {
	Schema    int                `json:"schema"`
	Scale     int                `json:"scale"`
	Threshold int                `json:"threshold"`
	Headline  map[string]float64 `json:"headline"`
}

// Headline computes the report's aggregate cells: for every column with
// an aggregate rule, the key "<exp>.<series>" maps to the same number
// the table's aggregate row shows. These are the trajectory file's
// tracked metrics.
func Headline(r *Report) map[string]float64 {
	out := map[string]float64{}
	for _, exp := range r.experiments() {
		d, ok := defFor(exp)
		if !ok {
			continue
		}
		recs := r.recordsFor(exp)
		for _, c := range d.cols {
			if c.agg == aggNone {
				continue
			}
			var col []float64
			for _, rec := range recs {
				if rec.Series == c.key {
					col = append(col, rec.Value)
				}
			}
			if v, ok := aggregate(c.agg, col); ok {
				out[d.exp+"."+c.key] = v
			}
		}
	}
	return out
}

// UpdateTrajectory merges a report's headline entry into the trajectory
// file's contents (nil or empty for a fresh file) and returns the new
// encoding. The operation is idempotent: applying the same report twice
// yields identical bytes.
func UpdateTrajectory(existing []byte, r *Report) ([]byte, error) {
	var entries []TrajectoryEntry
	if len(bytes.TrimSpace(existing)) > 0 {
		if err := json.Unmarshal(existing, &entries); err != nil {
			return nil, fmt.Errorf("report: parse trajectory: %w", err)
		}
	}
	entry := TrajectoryEntry{
		Schema:    SchemaVersion,
		Scale:     r.Meta.Scale,
		Threshold: r.Meta.Threshold,
		Headline:  Headline(r),
	}
	replaced := false
	for i := range entries {
		if entries[i].Scale == entry.Scale && entries[i].Threshold == entry.Threshold {
			entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, entry)
	}
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
