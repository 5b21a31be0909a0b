package results

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table renders a fixed-width text table — the formatting behind every
// report the repository regenerates from the paper. Cells render byte for
// byte as fmt's "%.*f" (floats) and "%-*s" (padding) would, including the
// quirk that padding counts runes while column widths count bytes: a
// column holding "µ" (one rune, two bytes) ends up one space wider.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
	widths []int
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

// AddRow appends a row of cells; missing cells render empty, and cells
// beyond the header open extra columns with an empty header.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	for i, c := range cells {
		if i == len(t.widths) {
			t.widths = append(t.widths, 0)
		}
		if len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row formatting each value with %v, floats with prec
// (non-negative) decimal places.
func (t *Table) AddRowf(prec int, cells ...interface{}) {
	out := make([]string, len(cells), max(len(cells), len(t.Header)))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = strconv.FormatFloat(v, 'f', prec, 64)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== ")
		b.WriteString(t.Title)
		b.WriteString(" ==\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", max(0, t.widths[i]-utf8.RuneCountInString(c))))
		}
		b.WriteByte('\n')
	}
	header := t.Header
	if len(header) < len(t.widths) {
		header = make([]string, len(t.widths))
		copy(header, t.Header)
	}
	writeRow(header)
	for i, w := range t.widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
