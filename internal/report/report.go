// Package report renders the experiment tables the benchmark harness
// produces, in aligned plain text (the form the paper's tables would
// take).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: a title, column headers, formatted
// rows, and free-form notes (e.g. the analytic formula being compared
// against).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row given as values formatted with %v, %d, %.4g etc.
// by the caller.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf formats each value with a sensible default: strings as-is,
// integers with %d, floats with %.4g.
func (t *Table) AddRowf(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	switch {
	case t.ID != "" && t.Title != "":
		if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
			return err
		}
	case t.ID != "" || t.Title != "":
		if _, err := fmt.Fprintf(w, "== %s%s ==\n", t.ID, t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, w2 := range widths {
		total += w2 + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", max(total, 4))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
