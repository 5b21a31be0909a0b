package results

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FuzzFormatFixed renders one float cell at a fuzzed value and precision
// through Table and through the reference renderer and requires identical
// bytes: NaN, ±Inf, ±0 and every magnitude format as fmt's "%.*f".
func FuzzFormatFixed(f *testing.F) {
	for _, x := range []float64{0.0625, 2.5, 9.9995, 9.9996, -1.5, 1e20, 1e-9, 0.999, 123.456} {
		f.Add(x, 3)
	}
	f.Add(math.Copysign(0, -1), 2)
	f.Add(math.Inf(1), 0)
	f.Fuzz(func(t *testing.T, x float64, prec int) {
		if prec < 0 || prec > 6 {
			prec = int(uint(prec) % 7)
		}
		tb, ref := NewTable("", "x"), &refTable{header: []string{"x"}}
		tb.AddRowf(prec, x)
		ref.addRowf(prec, x)
		if got, want := tb.String(), ref.String(); got != want {
			t.Fatalf("%v (%#x) at %d places: Table %q, reference %q", x, math.Float64bits(x), prec, got, want)
		}
	})
}

// refTable is the original fmt-based renderer: "%.*f" for floats,
// fmt.Sprint for everything else, "%-*s" padding to byte-counted widths.
// Rows longer than the header get empty header cells and full separator
// cells, like Table.
type refTable struct {
	title  string
	header []string
	rows   [][]string
}

func (r *refTable) addRowf(prec int, cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			out[i] = fmt.Sprintf("%.*f", prec, v)
		} else {
			out[i] = fmt.Sprint(c)
		}
	}
	for len(out) < len(r.header) {
		out = append(out, "")
	}
	r.rows = append(r.rows, out)
}

func (r *refTable) String() string {
	widths := make([]int, len(r.header))
	for i, h := range r.header {
		widths[i] = len(h)
	}
	for _, row := range r.rows {
		for i, c := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	if r.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", r.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	header := make([]string, len(widths))
	copy(header, r.header)
	writeRow(header)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.rows {
		writeRow(row)
	}
	return b.String()
}

// TestTableMatchesReferenceRenderer renders tables with multi-byte cells,
// short rows, long rows, and every cell type through Table and through
// the reference renderer, and requires identical bytes.
func TestTableMatchesReferenceRenderer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"gzip", "µ", "replayed µ-ops", "x", "", "SpecSched_4_Crit", "ΔIPC", "-"}
	for iter := 0; iter < 300; iter++ {
		ncol := 1 + rng.Intn(5)
		header := make([]string, ncol)
		for i := range header {
			header[i] = words[rng.Intn(len(words))]
		}
		title := ""
		if rng.Intn(3) > 0 {
			title = "Fig " + strconv.Itoa(iter) + ": issued µ-ops"
		}
		tb, ref := NewTable(title, header...), &refTable{title: title, header: header}
		prec := rng.Intn(4)
		for r := rng.Intn(6); r > 0; r-- {
			cells := make([]interface{}, rng.Intn(ncol+3))
			for i := range cells {
				switch rng.Intn(5) {
				case 0:
					cells[i] = words[rng.Intn(len(words))]
				case 1:
					cells[i] = int64(rng.Intn(100000))
				case 2:
					cells[i] = rng.NormFloat64() * 1e3
				default:
					cells[i] = rng.Float64() * 2
				}
			}
			tb.AddRowf(prec, cells...)
			ref.addRowf(prec, cells...)
		}
		if got, want := tb.String(), ref.String(); got != want {
			t.Fatalf("iteration %d differs:\n--- Table ---\n%s--- reference ---\n%s", iter, got, want)
		}
	}
}

// TestTableRowWiderThanHeader is the regression test for rows with more
// cells than the header: they used to panic with index out of range.
func TestTableRowWiderThanHeader(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2", "3")
	tb.AddRow("4")
	want := "== t ==\n" +
		"a  b   \n" +
		"-  -  -\n" +
		"1  2  3\n" +
		"4   \n"
	if got := tb.String(); got != want {
		t.Fatalf("got:\n%q\nwant:\n%q", got, want)
	}
}

// TestTableRunePadding pins the byte-width/rune-padding quirk reports
// depend on: "µ" is two bytes, so its column is one rune wider than it
// looks and every cell in it is padded to that width in runes.
func TestTableRunePadding(t *testing.T) {
	tb := NewTable("", "µ", "n")
	tb.AddRow("ab", "1")
	want := "µ   n\n--  -\nab  1\n"
	if got := tb.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
