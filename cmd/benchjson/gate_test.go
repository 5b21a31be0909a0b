package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchLine parses captured `go test -bench -benchmem` output:
// result lines with a GOMAXPROCS suffix, benchmem columns and custom
// metrics in any position, a line without Minst/s, and the non-result
// lines around them.
func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line    string
		name    string
		metrics map[string]float64 // nil: not a result line
	}{
		{"BenchmarkTable2-2        	       1	  81403792 ns/op	         1.769 Minst/s	11226536 B/op	    2595 allocs/op",
			"Table2", map[string]float64{"ns/op": 81403792, "Minst/s": 1.769, "B/op": 11226536, "allocs/op": 2595}},
		{"BenchmarkFig3-2          	       3	 359321435 ns/op	         2.004 Minst/s	         0.9339 gmean-B6/B0	54486040 B/op	   10721 allocs/op",
			"Fig3", map[string]float64{"ns/op": 359321435, "Minst/s": 2.004, "gmean-B6/B0": 0.9339, "B/op": 54486040, "allocs/op": 10721}},
		{"BenchmarkIQ256-16 	    1432	    708213 ns/op	         1.412 Minst/s	       0 B/op	       0 allocs/op",
			"IQ256", map[string]float64{"ns/op": 708213, "Minst/s": 1.412, "B/op": 0, "allocs/op": 0}},
		// No Minst/s: parsed, and the metric is simply absent.
		{"BenchmarkPreset-2        	 1000000	      1052 ns/op	     928 B/op	       4 allocs/op",
			"Preset", map[string]float64{"ns/op": 1052, "B/op": 928, "allocs/op": 4}},
		{"BenchmarkTable2", "", nil},
		{"goos: linux", "", nil},
		{"cpu: Intel(R) Xeon(R) Processor", "", nil},
		{"PASS", "", nil},
		{"ok  	specsched	0.518s", "", nil},
		{"BenchmarkTable2-2   1   81403792 ns/op   fast Minst/s", "", nil},
	} {
		bl, ok := parseBenchLine(tc.line)
		if ok != (tc.metrics != nil) {
			t.Errorf("%q: ok = %v", tc.line, ok)
			continue
		}
		if ok && (bl.Name != tc.name || !reflect.DeepEqual(bl.Metrics, tc.metrics)) {
			t.Errorf("%q: parsed %+v, want %s %v", tc.line, bl, tc.name, tc.metrics)
		}
	}
}

// TestJudge pins the paired verdict: noise inside the base's quartile
// spread passes, a consistent 20% slowdown fails, a point the base binary
// predates is skipped, and a point the head binary lost fails.
func TestJudge(t *testing.T) {
	base := []float64{1.70, 1.62, 1.75, 1.68, 1.80, 1.66, 1.72, 1.59, 1.77, 1.70}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = f * v
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		base, head []float64
		ok         bool
		verdict    string
	}{
		{"identical", base, base, true, "ok:"},
		{"20% slower", base, scaled(0.8), false, "FAIL:"},
		{"2% slower, inside the spread", base, scaled(0.98), true, "ok:"},
		{"faster", base, scaled(1.3), true, "ok:"},
		{"missing at base", nil, base, true, "skipped"},
		{"missing at head", base, nil, false, "FAIL: missing"},
		{"missing at both", nil, nil, false, "FAIL: missing"},
	} {
		verdict, _, ok := judge(tc.base, tc.head)
		if ok != tc.ok || !strings.HasPrefix(verdict, tc.verdict) {
			t.Errorf("%s: judge = %q, %v; want %v, %q...", tc.name, verdict, ok, tc.ok, tc.verdict)
		}
	}

	// Slower in the median but not in 9 of 10 pairs: a few bad pairs on a
	// noisy host do not fail the gate.
	mixed := scaled(0.8)
	copy(mixed[:2], scaled(1.1)[:2])
	if verdict, _, ok := judge(base, mixed); !ok {
		t.Errorf("head lost only 8/10 pairs: %s", verdict)
	}
}
