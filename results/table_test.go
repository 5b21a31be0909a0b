package results

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFixed asserts appendFixed(x, prec) matches strconv's 'f' format and
// the "%.*f" verb the table renderer used to call, byte for byte.
func checkFixed(t *testing.T, x float64, prec int) {
	t.Helper()
	want := strconv.FormatFloat(x, 'f', prec, 64)
	if got := string(appendFixed(nil, x, prec)); got != want {
		t.Fatalf("appendFixed(%v (%#x), %d) = %q, strconv %q", x, math.Float64bits(x), prec, got, want)
	}
	if old := fmt.Sprintf("%.*f", prec, x); old != want {
		t.Fatalf("%%.*f of %v at %d = %q, strconv %q", x, prec, old, want)
	}
}

func TestAppendFixedEdgeCases(t *testing.T) {
	for _, x := range []float64{
		0.0625, 0.125, 0.375, 2.5, 3.5, 0.5, 1.5, 1e-9, 5e-10, 1e20, 1e22, 1e23,
		9.9995, 9.9996, 9.99949, 99.9996, 999.9995, 0.9995, 0.99951, 0.0005, 0.00051,
		0.00049, 0.0015, 0.0025, 1, 10, 100, 1000, 0.1, 0.01, 0.001, 0.3, 0.12, 15.99,
		99.97, 10.04, 10.06, 123456789.125, 1.7976931348623157e308, 5e-324,
		2.2250738585072014e-308, 1<<53 + 1, 0.1 + 0.2, 1.0005, 1.2345,
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		for prec := 0; prec <= 6; prec++ {
			checkFixed(t, x, prec)
			checkFixed(t, -x, prec)
		}
	}
	// Powers of ten and their float64 neighbours, where appendFixed's
	// decade guess is most fragile.
	for n := -25; n <= 25; n++ {
		p := math.Pow10(n)
		for _, x := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			for prec := 0; prec <= 6; prec++ {
				checkFixed(t, x, prec)
			}
		}
	}
}

// TestAppendFixedRandom compares appendFixed with strconv over random
// values at report-like magnitudes and at every magnitude, plus values
// that sit exactly halfway between two outputs.
func TestAppendFixedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 30000
	if testing.Short() {
		n = 3000
	}
	for i := 0; i < n; i++ {
		prec := rng.Intn(7)
		checkFixed(t, rng.Float64()*2, prec)
		checkFixed(t, math.Float64frombits(rng.Uint64()), prec)
		// k.5 at the last printed place is exact in binary whenever
		// it fits the mantissa: ties must round half to even.
		scale := math.Pow(10, float64(prec))
		checkFixed(t, (float64(rng.Intn(1<<20))+0.5)/scale, prec)
		checkFixed(t, float64(rng.Intn(1<<20))/float64(int(1)<<rng.Intn(12)), prec)
	}
}

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
		checkFixed(t, x, prec)
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

func BenchmarkAppendFixed(b *testing.B) {
	xs := []float64{1.0234567, 0.0431, 0.98765, 12.5, 0.333333}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendFixed(buf[:0], xs[i%len(xs)], 3)
	}
}
