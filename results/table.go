package results

import (
	"fmt"
	"math"
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
	// Formatted floats share one string per row: their bytes go to buf,
	// ends[i] marks where cell i's bytes stop (-1 for non-float cells),
	// and the cells become substrings of a single conversion.
	var (
		bufArr  [256]byte
		endsArr [32]int
	)
	buf, ends := bufArr[:0], endsArr[:0]
	for i, c := range cells {
		end := -1
		switch v := c.(type) {
		case float64:
			buf = appendFixed(buf, v, prec)
			end = len(buf)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprint(v)
		}
		ends = append(ends, end)
	}
	if len(buf) > 0 {
		s, start := string(buf), 0
		for i, end := range ends {
			if end >= 0 {
				out[i], start = s[start:end], end
			}
		}
	}
	t.AddRow(out...)
}

// String renders the table.
func (t *Table) String() string {
	line := 0
	for _, w := range t.widths {
		line += w + 2
	}
	var b strings.Builder
	b.Grow(len(t.Title) + 8 + line*(len(t.rows)+2))
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
			pad(&b, ' ', t.widths[i]-utf8.RuneCountInString(c))
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
		pad(&b, '-', w)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// pad writes n copies of c to b; n <= 0 writes nothing.
func pad(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// maxFixedDigits bounds the significant digits appendFixed asks strconv's
// 'e' format for: up to this many, AppendFloat runs Ryu's fixed-precision
// algorithm, which is exact.
const maxFixedDigits = 17

// log10of2 converts a binary exponent to a decimal one.
const log10of2 = 0.30102999566398119521

// appendFixed appends x formatted exactly as strconv.AppendFloat(dst, x,
// 'f', prec, 64) would, but faster. strconv's 'f' format with a fixed
// precision always takes its big-decimal path; its 'e' format with at most
// maxFixedDigits significant digits takes Ryu's fixed-precision path,
// which rounds the same exact binary value the same way (half to even).
// So appendFixed asks 'e' for as many significant digits as 'f' would
// print and places the decimal point itself. Zero, NaN, ±Inf, digit counts
// out of range, and a rounding carry into a new decade (9.9996 at three
// places is "10.000") fall back to strconv's 'f'.
func appendFixed(dst []byte, x float64, prec int) []byte {
	if x == 0 || prec < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	// 2^(e2-1) <= |x| < 2^e2, so floor(log10|x|) is e10 or e10+1; the
	// comparison settles which, up to float64(10^n) rounding (a wrong
	// guess only costs the retry below).
	_, e2 := math.Frexp(x)
	e10 := int(math.Floor(float64(e2-1) * log10of2))
	if math.Abs(x) >= math.Pow10(e10+1) {
		e10++
	}
	var buf [32]byte
	digits, exp := sigDigits(buf[:0], x, e10+1+prec)
	if digits != nil && exp != e10 {
		// The guess was off by one, or x rounded up into the next
		// decade: format for the decade the rounding landed in.
		e10 = exp
		digits, exp = sigDigits(buf[:0], x, e10+1+prec)
	}
	if digits == nil || exp != e10 {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	if x < 0 {
		dst = append(dst, '-')
	}
	if exp < 0 {
		dst = append(dst, '0', '.')
		for i := -1; i > exp; i-- {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	}
	dst = append(dst, digits[:exp+1]...)
	if prec > 0 {
		dst = append(dst, '.')
		dst = append(dst, digits[exp+1:]...)
	}
	return dst
}

// sigDigits formats |x| to n significant digits with strconv's 'e' format
// into buf and returns the bare digits and the decimal exponent of the
// first one. It returns nil digits when n is outside 1..maxFixedDigits.
func sigDigits(buf []byte, x float64, n int) ([]byte, int) {
	if n < 1 || n > maxFixedDigits {
		return nil, 0
	}
	buf = strconv.AppendFloat(buf, math.Abs(x), 'e', n-1, 64)
	if n == 1 {
		return buf[:1], parseExp(buf[2:]) // "de±XX"
	}
	// "d.ddde±XX": shift the first digit right over the point.
	buf[1] = buf[0]
	return buf[1 : n+1], parseExp(buf[n+2:])
}

// parseExp parses the signed exponent strconv's 'e' format writes.
func parseExp(s []byte) int {
	exp := 0
	for _, c := range s[1:] {
		exp = exp*10 + int(c-'0')
	}
	if s[0] == '-' {
		return -exp
	}
	return exp
}
