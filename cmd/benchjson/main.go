// Command benchjson drives the root package's compiled test binaries to
// record the simulator's performance trajectory and to gate a change on
// it. The benchmark points themselves are declared once, in the root
// bench_test.go; benchjson only runs a `go test -c` binary with
// `-test.run '^$' -test.bench '^Benchmark<point>$' -test.benchmem` per
// point and repetition and parses ns/op, allocs/op and Minst/s from the
// standard benchmark lines.
//
// Usage:
//
//	go test -c -o head.test .
//	go run ./cmd/benchjson -bin head.test -out BENCH_<n>.json [-reps 5] [-for LABEL] [-profile DIR]
//	go run ./cmd/benchjson -bin head.test -base base.test [-reps 10] [-profile DIR] [-out bench-pair.json]
//
// With -bin alone it records every point (the figure benchmarks plus
// IQ256, TraceReplay and LongWindow) -reps times and writes a
// specsched-bench/v2 report: the per-rep samples of each metric with
// their median and min.
//
// Adding -base turns it into the regression gate, over Table2, IQ256,
// TraceReplay and the long-window point LongWindow. The two binaries run
// back to back, rep by rep, swapping which goes first, so host drift
// lands on both sides of every pair. A point fails when the median of its paired
// head/base Minst/s ratios is below 1 by more than the base's own
// quartile spread (interquartile range over median) and head loses at
// least 9 of 10 pairs; there is no fixed allowance, so a noisy host
// widens the band instead of failing the gate. A point the base binary
// does not declare is reported and skipped; one the head binary lacks
// fails. The exit status is 1 when any point fails.
//
// -profile DIR writes a CPU and a heap profile per point and binary
// (DIR/<point>.<head|base>.{cpu,mem}.pprof) from one extra run after the
// measured reps, so profiling overhead never enters a sample.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// recordPoints are the benchmarks a recording run measures: every figure
// benchmark plus the widened-window, trace-replay and long-window points.
var recordPoints = []string{"Table2", "Fig3", "Fig4", "Fig5", "Fig7", "Fig8", "DelaySweep", "IQ256", "TraceReplay", "LongWindow"}

// gatePoints are the points the paired gate measures.
var gatePoints = []string{"Table2", "IQ256", "TraceReplay", "LongWindow"}

// benchLine is one parsed standard benchmark result line.
type benchLine struct {
	Name    string             // without the Benchmark prefix and -GOMAXPROCS suffix
	Metrics map[string]float64 // by unit: "ns/op", "allocs/op", "Minst/s", ...
}

// parseBenchLine parses a `go test -bench` result line such as
//
//	BenchmarkTable2-2   1   81403792 ns/op   1.769 Minst/s   11226536 B/op   2595 allocs/op
//
// ok is false for any other line.
func parseBenchLine(line string) (benchLine, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchLine{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return benchLine{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	bl := benchLine{Name: name, Metrics: make(map[string]float64, (len(f)-2)/2)}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchLine{}, false
		}
		bl.Metrics[f[i+1]] = v
	}
	return bl, true
}

// sample is one measured run of one point.
type sample struct {
	Minsts, NsOp, AllocsOp float64
}

// runPoint runs benchmark point name in the test binary bin once, with
// any extra test flags, and returns its result line's metrics.
func runPoint(bin, name string, extra ...string) (sample, error) {
	args := append([]string{"-test.run", "^$", "-test.bench", "^Benchmark" + name + "$", "-test.benchmem"}, extra...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return sample{}, fmt.Errorf("%s %s: %w\n%s", bin, name, err, out)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		bl, ok := parseBenchLine(sc.Text())
		if !ok || bl.Name != name {
			continue
		}
		minsts, ok := bl.Metrics["Minst/s"]
		if !ok {
			return sample{}, fmt.Errorf("%s %s: no Minst/s metric in %q", bin, name, sc.Text())
		}
		return sample{Minsts: minsts, NsOp: bl.Metrics["ns/op"], AllocsOp: bl.Metrics["allocs/op"]}, nil
	}
	return sample{}, fmt.Errorf("%s %s: no benchmark result line in output:\n%s", bin, name, out)
}

// declared lists the benchmark points bin declares.
func declared(bin string) (map[string]bool, error) {
	out, err := exec.Command(bin, "-test.list", "^Benchmark").Output()
	if err != nil {
		return nil, fmt.Errorf("%s -test.list: %w", bin, err)
	}
	have := make(map[string]bool)
	for _, name := range strings.Fields(string(out)) {
		have[strings.TrimPrefix(name, "Benchmark")] = true
	}
	return have, nil
}

// profile runs point once more in bin with CPU and heap profiling on.
func profile(dir, bin, role, point string) error {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, point+"."+role)
	_, err = runPoint(bin, point, "-test.cpuprofile", stem+".cpu.pprof", "-test.memprofile", stem+".mem.pprof")
	return err
}

// stat is one metric's per-rep samples with their median and min.
type stat struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
}

func newStat(xs []float64) stat {
	s := slices.Clone(xs)
	slices.Sort(s)
	return stat{Samples: xs, Median: quantile(s, 0.5), Min: s[0]}
}

// quantile interpolates the q-quantile of the sorted, non-empty xs.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// series is one binary's samples of one point.
type series struct {
	Minsts   stat `json:"minst_per_s"`
	NsOp     stat `json:"ns_per_op"`
	AllocsOp stat `json:"allocs_per_op"`
}

// newSeries summarizes samples; nil for none.
func newSeries(ss []sample) *series {
	if len(ss) == 0 {
		return nil
	}
	var m, n, a []float64
	for _, s := range ss {
		m, n, a = append(m, s.Minsts), append(n, s.NsOp), append(a, s.AllocsOp)
	}
	return &series{Minsts: newStat(m), NsOp: newStat(n), AllocsOp: newStat(a)}
}

// point is one benchmark point of the report. Base, Ratio and Verdict
// are set by the gate only.
type point struct {
	Name    string  `json:"name"`
	Head    *series `json:"head,omitempty"`
	Base    *series `json:"base,omitempty"`
	Ratio   *stat   `json:"head_base_ratio,omitempty"`
	Verdict string  `json:"verdict,omitempty"`
}

type report struct {
	Schema     string  `json:"schema"`
	CreatedFor string  `json:"created_for"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Reps       int     `json:"reps"`
	Points     []point `json:"points"`
}

// judge is the paired verdict on one gated point, from the per-rep
// Minst/s of each binary in pair order; a nil slice marks a point the
// binary does not declare. It returns the verdict, the paired head/base
// ratios and whether the point passes.
func judge(base, head []float64) (string, []float64, bool) {
	switch {
	case head == nil:
		return "FAIL: missing from the head binary", nil, false
	case base == nil:
		return "skipped: not declared by the base binary", nil, true
	case len(base) != len(head) || len(base) == 0:
		return fmt.Sprintf("FAIL: %d base vs %d head samples", len(base), len(head)), nil, false
	}
	ratios := make([]float64, len(head))
	losses := 0
	for i := range head {
		ratios[i] = head[i] / base[i]
		if head[i] < base[i] {
			losses++
		}
	}
	sb := slices.Sorted(slices.Values(base))
	spread := (quantile(sb, 0.75) - quantile(sb, 0.25)) / quantile(sb, 0.5)
	med := quantile(slices.Sorted(slices.Values(ratios)), 0.5)
	fails := med < 1-spread && 10*losses >= 9*len(head)
	verdict := fmt.Sprintf("median head/base %.3f (band %.3f), head slower in %d/%d pairs",
		med, 1-spread, losses, len(head))
	if fails {
		return "FAIL: " + verdict, ratios, false
	}
	return "ok: " + verdict, ratios, true
}

// binary is one test binary under measurement.
type binary struct {
	role, path string
	have       map[string]bool     // declared benchmark points
	samples    map[string][]sample // per point, in rep order
}

func main() {
	bin := flag.String("bin", "", "compiled root test binary to measure (go test -c -o head.test .)")
	base := flag.String("base", "", "parent's compiled root test binary: gate -bin against it over paired runs")
	out := flag.String("out", "", "output JSON path (default BENCH.json, or bench-pair.json with -base)")
	reps := flag.Int("reps", 5, "repetitions per point (with -base: pairs per point)")
	createdFor := flag.String("for", "", "label recorded as created_for (what this run measures)")
	profileDir := flag.String("profile", "", "directory for per-point CPU/heap pprof profiles (empty = no profiling)")
	flag.Parse()
	if *bin == "" || *reps < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	points, label, path := recordPoints, "perf trajectory point", "BENCH.json"
	if *base != "" {
		points, label, path = gatePoints, "paired regression gate", "bench-pair.json"
	}
	if *out != "" {
		path = *out
	}
	if *createdFor != "" {
		label = *createdFor
	}
	bins := []*binary{{role: "head", path: *bin}}
	if *base != "" {
		bins = append(bins, &binary{role: "base", path: *base})
	}
	rep, pass, err := run(bins, points, *reps, *profileDir)
	if err == nil {
		rep.CreatedFor = label
		err = writeReport(path, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if !pass {
		fmt.Fprintln(os.Stderr, "benchjson: REGRESSION: head is slower than base")
		os.Exit(1)
	}
}

// run measures points in bins (head first, then the optional base) for
// reps rounds and summarizes them; pass is false when the gate fails.
// In a recording run (one binary) every point must be declared.
func run(bins []*binary, points []string, reps int, profileDir string) (rep report, pass bool, err error) {
	for _, b := range bins {
		if b.have, err = declared(b.path); err != nil {
			return rep, false, err
		}
		b.samples = make(map[string][]sample)
	}
	gate := len(bins) == 2
	if !gate {
		for _, p := range points {
			if !bins[0].have[p] {
				return rep, false, fmt.Errorf("%s declares no Benchmark%s", bins[0].path, p)
			}
		}
	}
	for r := 0; r < reps; r++ {
		for _, p := range points {
			if !bins[0].have[p] || !bins[len(bins)-1].have[p] {
				continue // judged below without samples
			}
			line := fmt.Sprintf("rep %d/%d %-11s", r+1, reps, p)
			for k := range bins {
				b := bins[(k+r)%len(bins)] // alternate which binary runs first
				s, err := runPoint(b.path, p)
				if err != nil {
					return rep, false, err
				}
				b.samples[p] = append(b.samples[p], s)
				line += fmt.Sprintf("  %s %.3f Minst/s", b.role, s.Minsts)
			}
			fmt.Println(line)
		}
	}

	rep = report{Schema: "specsched-bench/v2", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Reps: reps}
	pass = true
	for _, p := range points {
		pt := point{Name: p, Head: newSeries(bins[0].samples[p])}
		for _, b := range bins {
			if profileDir != "" && b.have[p] {
				if err := profile(profileDir, b.path, b.role, p); err != nil {
					return rep, false, err
				}
			}
		}
		if !gate {
			fmt.Printf("%-11s median %.3f Minst/s (min %.3f), %.1f ms/op, %.0f allocs/op\n", p,
				pt.Head.Minsts.Median, pt.Head.Minsts.Min, pt.Head.NsOp.Median/1e6, pt.Head.AllocsOp.Median)
			rep.Points = append(rep.Points, pt)
			continue
		}
		pt.Base = newSeries(bins[1].samples[p])
		verdict, ratios, ok := judge(bins[1].minsts(p), bins[0].minsts(p))
		pt.Verdict = verdict
		if ratios != nil {
			st := newStat(ratios)
			pt.Ratio = &st
		}
		pass = pass && ok
		fmt.Printf("gate[%s]: %s\n", p, verdict)
		rep.Points = append(rep.Points, pt)
	}
	return rep, pass, nil
}

// minsts returns the Minst/s of each of point p's samples, or nil when b
// does not declare p.
func (b *binary) minsts(p string) []float64 {
	if !b.have[p] {
		return nil
	}
	xs := make([]float64, 0, len(b.samples[p]))
	for _, s := range b.samples[p] {
		xs = append(xs, s.Minsts)
	}
	return xs
}

// writeReport writes rep as indented JSON to path.
func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
