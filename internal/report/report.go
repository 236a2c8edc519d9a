// Package report renders the reproduction's tables and figure data as
// aligned ASCII, in the same row/series structure the paper reports, so
// the fedca-bench output can be diffed against the paper's numbers by eye.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty, extras panic.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) > len(t.headers) {
		panic("report: row has more cells than headers")
	}
	row := make([]string, len(t.headers))
	for i, c := range cells {
		row[i] = toString(c)
	}
	t.rows = append(t.rows, row)
}

func toString(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case int:
		return fmt.Sprintf("%d", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

func formatFloat(x float64) string {
	a := x
	if a < 0 {
		a = -a
	}
	switch {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", x)
	case a >= 10:
		return fmt.Sprintf("%.1f", x)
	case a >= 0.01:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%.2e", x)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series renders a named (x, y) series, optionally downsampled to at most
// maxPoints evenly spaced points (0 = all), one "x y" pair per line —
// the figure-data format of the reproduction.
func Series(name string, xs, ys []float64, maxPoints int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%d points)\n", name, len(xs))
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	for i := 0; i < n; i += step {
		fmt.Fprintf(&b, "%g\t%g\n", xs[i], ys[i])
	}
	// Always include the final point so the curve's endpoint is visible.
	if n > 0 && (n-1)%step != 0 {
		fmt.Fprintf(&b, "%g\t%g\n", xs[n-1], ys[n-1])
	}
	return b.String()
}

// Sparkline renders ys as a compact unicode strip — a quick visual check of
// curve shape in terminal output.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if span > 0 {
			idx = int((y - lo) / span * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
