// Package stats provides the small numeric and text-table helpers used by
// the experiment drivers to print the paper's tables and figure series.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs (ignoring non-positive values).
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Spread returns (max-min)/mean of xs, the relative spread the
// dataset-sensitivity study reports; it is 0 for no values or a zero
// mean.
func Spread(xs []float64) float64 {
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / mean
}

// Table accumulates rows and renders an aligned text table.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends a row; cells are formatted with %v, floats with 2-3
// significant decimals.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			switch {
			case v == 0:
				row[i] = "0"
			case math.Abs(v) >= 100:
				row[i] = fmt.Sprintf("%.0f", v)
			case math.Abs(v) >= 10:
				row[i] = fmt.Sprintf("%.1f", v)
			default:
				row[i] = fmt.Sprintf("%.2f", v)
			}
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
