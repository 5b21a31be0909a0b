// Benchmarks regenerating the paper's tables and figures. Each benchmark
// runs the corresponding experiment on a representative workload subset
// with shortened windows (full-length reproductions are produced by
// cmd/experiments) and reports simulation throughput (Minst/s) plus the
// figure's key quantity as custom metrics, so `go test -bench=. -benchmem`
// both times the simulator and re-derives the paper's results. This file
// is the one place benchmark points are declared: cmd/benchjson runs its
// compiled test binary and parses the standard benchmark lines.
package specsched_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"specsched"
	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
)

// benchWorkloads is a representative slice of the Table 2 suite: two
// bank-conflict-prone high-IPC codes, one high-miss/high-ILP, one
// streaming-DRAM, one pointer chase, one branchy INT.
var benchWorkloads = []string{"swim", "hmmer", "xalancbmk", "libquantum", "mcf", "gzip"}

// bctx is the background context the benchmarks run under.
var bctx = context.Background()

// benchWarmup and benchMeasure are the shortened per-run windows of the
// figure and trace-replay benchmarks.
const benchWarmup, benchMeasure = 4000, 20000

// benchSweep is a fresh sweep over benchWorkloads at shortened windows.
func benchSweep(b *testing.B) *specsched.Sweep {
	return mustSweep(b, specsched.SweepSpec{Workloads: benchWorkloads,
		Warmup: i64(benchWarmup), Measure: i64(benchMeasure)})
}

// benchFigure regenerates one named report b.N times, each on a fresh
// sweep, and reports simulation throughput as Minst/s: the µ-ops the
// sweeps simulated over b.Elapsed(). It returns the last sweep and its
// report text for the figure's key quantity, with the timer stopped.
func benchFigure(b *testing.B, name string) (*specsched.Sweep, string) {
	b.Helper()
	var (
		sw   *specsched.Sweep
		out  string
		uops int64
	)
	for i := 0; i < b.N; i++ {
		sw = benchSweep(b)
		var err error
		if out, err = sw.Report(bctx, name); err != nil {
			b.Fatal(err)
		}
		uops += sw.SimulatedUOps()
	}
	b.ReportMetric(float64(uops)/b.Elapsed().Seconds()/1e6, "Minst/s")
	b.StopTimer()
	return sw, out
}

// pooled returns a sweep's pooled report runs as a set.
func pooled(sw *specsched.Sweep) *stats.Set {
	runs := sw.Snapshot()
	set := stats.NewSet()
	for i := range runs {
		set.Add(&runs[i])
	}
	return set
}

// BenchmarkTable2 regenerates the per-benchmark Baseline_0 IPC table.
func BenchmarkTable2(b *testing.B) {
	if _, out := benchFigure(b, "table2"); !strings.Contains(out, "xalancbmk") {
		b.Fatal("table missing rows")
	}
}

// BenchmarkFig3 regenerates the conservative-scheduling slowdown and
// reports the Baseline_6 gmean slowdown (the paper's worst case).
func BenchmarkFig3(b *testing.B) {
	sw, _ := benchFigure(b, "fig3")
	b.ReportMetric(pooled(sw).GMeanSpeedup("Baseline_6", "Baseline_0"), "gmean-B6/B0")
}

// BenchmarkFig4 regenerates speculative scheduling with dual vs banked L1
// and reports the banked SpecSched_4 gmean relative to Baseline_0.
func BenchmarkFig4(b *testing.B) {
	sw, _ := benchFigure(b, "fig4")
	b.ReportMetric(pooled(sw).GMeanSpeedup("SpecSched_4", "Baseline_0"), "gmean-SS4/B0")
}

// BenchmarkFig5 regenerates Schedule Shifting and reports the fraction of
// bank-conflict replays it removes (paper: 74.8%).
func BenchmarkFig5(b *testing.B) {
	sw, _ := benchFigure(b, "fig5")
	removed := pooled(sw).ReductionVs("SpecSched_4_Shift", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedBank })
	b.ReportMetric(100*removed, "bank-replays-removed-%")
}

// BenchmarkFig7 regenerates hit/miss filtering and reports the fraction of
// miss replays the filter removes (paper: 65.0%).
func BenchmarkFig7(b *testing.B) {
	sw, _ := benchFigure(b, "fig7")
	removed := pooled(sw).ReductionVs("SpecSched_4_Filter", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedMiss })
	b.ReportMetric(100*removed, "miss-replays-removed-%")
}

// BenchmarkFig8 regenerates Combined/Crit and reports the total replay
// reduction of SpecSched_4_Crit (paper: 90.6%).
func BenchmarkFig8(b *testing.B) {
	sw, _ := benchFigure(b, "fig8")
	removed := pooled(sw).ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.Replayed() })
	b.ReportMetric(100*removed, "replays-removed-%")
}

// BenchmarkDelaySweep regenerates the §5.3 SpecSched_{2,6}_Crit numbers.
func BenchmarkDelaySweep(b *testing.B) {
	benchFigure(b, "delays")
}

// BenchmarkLongWindow runs SpecSched_4_Crit on gzip, mcf, applu, parser,
// swim and hmmer for 1M µ-ops each from a cold core (no warm-up) and
// reports Minst/s. At this length core construction and its garbage
// amortize away, so the point weighs the per-µ-op loop (fetch, issue,
// execute) as long report windows do and the short figure windows do not.
func BenchmarkLongWindow(b *testing.B) {
	var uops int64
	for i := 0; i < b.N; i++ {
		sw := mustSweep(b, specsched.SweepSpec{Configs: []string{"SpecSched_4_Crit"},
			Workloads: []string{"gzip", "mcf", "applu", "parser", "swim", "hmmer"},
			Warmup:    i64(0), Measure: i64(1_000_000)})
		if _, err := sw.Run(bctx); err != nil {
			b.Fatal(err)
		}
		uops += sw.SimulatedUOps()
	}
	b.ReportMetric(float64(uops)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTraceReplay times the trace-replay path: libquantum
// (memory-bound, so quiescent-cycle skipping engages on replay too) is
// recorded once in memory, then each iteration replays it through the
// internal/traceio decoder on Baseline_0 at the benchmark windows. A
// decoder regression (allocation creep, a lost NextInto fast path) shows
// here and nowhere else: the figure benchmarks never decode.
func BenchmarkTraceReplay(b *testing.B) {
	var buf bytes.Buffer
	// Slack past the simulation window covers fetch-ahead into the
	// in-flight window (ROB + frontend) at the moment measurement ends.
	if err := specsched.WorkloadByName("libquantum").RecordTo(&buf, benchWarmup+benchMeasure+16384); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := specsched.NewSimulator(
			specsched.WithPreset("Baseline_0"),
			specsched.WithWorkloadSpec(specsched.TraceWorkloadReader(bytes.NewReader(data))),
			specsched.Warmup(benchWarmup),
			specsched.Measure(benchMeasure),
		).Run(bctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((benchWarmup+benchMeasure)*b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkCoreThroughput measures raw simulation speed: committed µ-ops
// per wall-clock second on the heaviest configuration.
func BenchmarkCoreThroughput(b *testing.B) {
	p, err := trace.ByName("xalancbmk")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.Preset("SpecSched_4_Crit")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.New(cfg, trace.New(p), p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(5000, 1) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(0, 1000)
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "µops/s")
}

// BenchmarkCoreStepBaseline measures per-cycle simulation cost on the
// conservative baseline (no replay machinery active).
func BenchmarkCoreStepBaseline(b *testing.B) {
	p, err := trace.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.New(cfg, trace.New(p), p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkIQ256 measures steady-state core throughput on the widened
// window: Baseline_0 at the shared config.WideWindow point, on a
// streaming-DRAM workload. The conservative baseline keeps ~100 sleeping
// entries resident in the 256-entry IQ, parked on consumer lists, so the
// point tracks how ready-selection cost scales with window size.
func BenchmarkIQ256(b *testing.B) {
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		b.Fatal(err)
	}
	p, err := trace.ByName("libquantum")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.New(config.WideWindow(cfg), trace.New(p), p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(0, 1000)
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// hitSpecConfigs are the six presets of the serving daemon's cached-hit
// job: the spec is validated on submission and again when the job runs,
// and each resolved config is digested for the cell cache key, so preset
// resolution and digesting are the bulk of a hit's CPU outside HTTP.
var hitSpecConfigs = []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Ctr",
	"SpecSched_4_Filter", "SpecSched_4_Combined", "SpecSched_4_Crit"}

// sinkCfg and sinkKey keep the measured calls from being optimized away.
var (
	sinkCfg config.CoreConfig
	sinkKey string
)

// BenchmarkPreset times resolving one preset by name.
func BenchmarkPreset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := config.Preset("SpecSched_4_Crit")
		if err != nil {
			b.Fatal(err)
		}
		sinkCfg = c
	}
}

// BenchmarkDedupKey times building one cell's cross-job dedup key,
// including the config digest.
func BenchmarkDedupKey(b *testing.B) {
	cfg, err := config.Preset("SpecSched_4_Crit")
	if err != nil {
		b.Fatal(err)
	}
	cell := sim.Cell{Config: cfg, Workload: "mcf"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkKey = sim.DedupKey(cell, 5000, 25000, nil)
	}
}

// BenchmarkNewSweepFromSpec times validating and constructing the sweep of
// a daemon hit job: one workload on six presets.
func BenchmarkNewSweepFromSpec(b *testing.B) {
	warmup, measure := int64(5000), int64(25000)
	spec := specsched.SweepSpec{Configs: hitSpecConfigs, Workloads: []string{"mcf"},
		Warmup: &warmup, Measure: &measure, Jobs: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := specsched.NewSweepFromSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// reportCachedNames are the reports a perfbench figs hit job asks for.
var reportCachedNames = []string{"table2", "fig7", "fig8"}

// cachedReportSweep returns a Sweep over benchWorkloads at tiny windows
// whose table2/fig7/fig8 reports have all rendered once, so further
// Report calls are hits.
func cachedReportSweep(tb testing.TB) *specsched.Sweep {
	tb.Helper()
	sw := mustSweep(tb, specsched.SweepSpec{Workloads: benchWorkloads, Warmup: i64(500), Measure: i64(2000)})
	renderCachedReports(tb, sw) // simulates and caches every cell
	return sw
}

// renderCachedReports asks for every reportCachedNames report once.
func renderCachedReports(tb testing.TB, sw *specsched.Sweep) {
	for _, name := range reportCachedNames {
		if _, err := sw.Report(bctx, name); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkReportCached times a cached report hit: table2, fig7 and fig8
// asked again of a Sweep that has already rendered them, so each call is
// a lookup of the report text the Sweep kept, not a render.
func BenchmarkReportCached(b *testing.B) {
	sw := cachedReportSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderCachedReports(b, sw)
	}
}

// maxReportCachedAllocs bounds the allocations of one cached
// table2+fig7+fig8 hit: a kept report costs a map lookup and nothing else.
const maxReportCachedAllocs = 0

// TestReportCachedAllocs is the allocation regression guard for cached
// report hits: asking a Sweep again for a report it has rendered must
// return the kept text without collecting runs or formatting tables.
func TestReportCachedAllocs(t *testing.T) {
	sw := cachedReportSweep(t)
	n := testing.AllocsPerRun(20, func() { renderCachedReports(t, sw) })
	t.Logf("cached table2+fig7+fig8 hit: %.0f allocations", n)
	if n > maxReportCachedAllocs {
		t.Fatalf("cached table2+fig7+fig8 hit made %.0f allocations, want <= %d", n, maxReportCachedAllocs)
	}
}
