package experiments

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specsched/internal/faultinject"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
)

// ctx is the background context shared by these tests; cancellation
// behaviour is covered separately.
var ctx = context.Background()

// tinyWorkloads keeps experiment tests fast: three contrasting workloads
// (one with load-use chains over L1 hits, one bank-conflict-prone, one
// miss-heavy), simulated over short windows.
var tinyWorkloads = []string{"gzip", "hmmer", "xalancbmk"}

const tinyWarmup, tinyMeasure = 3000, 15000

// localGrid executes grids in-process on a jobs-wide sim pool over the
// given windows and traces.
func localGrid(jobs int, warmup, measure int64, traces sim.TraceSet) GridFunc {
	return func(ctx context.Context, cells []sim.Cell) ([]sim.Result, error) {
		pool := &sim.Pool{Jobs: jobs}
		res := pool.RunWith(ctx, cells, sim.LocalRunner{Warmup: warmup, Measure: measure, Traces: traces})
		return res, ctx.Err()
	}
}

// tinyRunner is a runner over tinyWorkloads (or the given workloads) with
// short windows, jobs pool workers (0 = GOMAXPROCS) and seeds replicas.
func tinyRunner(jobs, seeds int, workloads ...string) *Runner {
	if len(workloads) == 0 {
		workloads = tinyWorkloads
	}
	return NewRunner(workloads, seeds, localGrid(jobs, tinyWarmup, tinyMeasure, nil))
}

func TestTable1Static(t *testing.T) {
	out := Table1()
	for _, want := range []string{"192-entry ROB", "60-entry", "TAGE", "DDR3-1600", "75/185"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	r := tinyRunner(0, 1)
	out, err := r.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range tinyWorkloads {
		if !strings.Contains(out, wl) {
			t.Errorf("Table 2 missing workload %s", wl)
		}
	}
	if !strings.Contains(out, "paper IPC") {
		t.Error("Table 2 missing paper reference column")
	}
}

func TestFig3Shape(t *testing.T) {
	r := tinyRunner(0, 1)
	if _, err := r.Run(ctx, "fig3"); err != nil {
		t.Fatal(err)
	}
	set, err := r.Collect(ctx, "Baseline_0", "Baseline_2", "Baseline_4", "Baseline_6")
	if err != nil {
		t.Fatal(err)
	}
	g2 := set.GMeanSpeedup("Baseline_2", "Baseline_0")
	g4 := set.GMeanSpeedup("Baseline_4", "Baseline_0")
	g6 := set.GMeanSpeedup("Baseline_6", "Baseline_0")
	if !(g2 > g4 && g4 > g6) {
		t.Fatalf("Fig 3 not monotone: %.3f %.3f %.3f", g2, g4, g6)
	}
	if g6 >= 1 {
		t.Fatalf("Baseline_6 gmean %.3f, must be a slowdown", g6)
	}
}

// measureClaim renders figure name on r and evaluates the claim it
// declares of metric m for cfg over the runs the render pooled.
func measureClaim(t *testing.T, r *Runner, name, cfg string, m *metric) (float64, claim) {
	t.Helper()
	if _, err := r.Run(ctx, name); err != nil {
		t.Fatal(err)
	}
	for _, l := range figures[name].lines {
		for _, c := range l.claims {
			if c.config == cfg && c.metric == m {
				set, err := r.Collect(ctx, l.base, c.config)
				if err != nil {
					t.Fatal(err)
				}
				return m.of(set, cfg, l.base), c
			}
		}
	}
	t.Fatalf("%s declares no such claim for %s", name, cfg)
	return 0, claim{}
}

func TestFig5ShiftingRemovesBankReplays(t *testing.T) {
	red, c := measureClaim(t, tinyRunner(0, 1), "fig5", "SpecSched_4_Shift", bankReplaysCut)
	if red < 0.5 {
		t.Fatalf("Shifting removed only %.1f%% of bank replays (paper: %s)", 100*red, c.paper)
	}
}

func TestFig8CritRemovesMostReplays(t *testing.T) {
	red, c := measureClaim(t, tinyRunner(0, 1), "fig8", "SpecSched_4_Crit", replaysCut)
	if red < 0.6 {
		t.Fatalf("Crit removed only %.1f%% of replays (paper: %s)", 100*red, c.paper)
	}
}

// TestFigureClaimsRender: every declared figure is a Names() experiment,
// and its report prints each declared claim's paper value on the claim's
// line.
func TestFigureClaimsRender(t *testing.T) {
	r := NewRunner(tinyWorkloads, 1, syntheticGrid)
	for name, f := range figures {
		t.Run(name, func(t *testing.T) {
			if !slices.Contains(Names(), name) {
				t.Fatalf("figure %q is not among Names()", name)
			}
			out, err := r.Run(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range f.lines {
				for _, c := range l.claims {
					want := "(paper: " + c.paper + ")"
					if !slices.ContainsFunc(strings.Split(out, "\n"), func(line string) bool {
						return strings.HasPrefix(line, l.label+":") && strings.Contains(line, want)
					}) {
						t.Errorf("no %q line with %q in:\n%s", l.label, want, out)
					}
				}
			}
		})
	}
}

func TestRunnerCacheReuse(t *testing.T) {
	r := tinyRunner(0, 1)
	a, err := r.Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	// Cached: identical pointers.
	if a.Get("Baseline_0", "gzip") == nil || a.Get("Baseline_0", "gzip") != b.Get("Baseline_0", "gzip") {
		t.Fatal("runner re-simulated a cached configuration")
	}
}

// TestRunKeepsRenderedReports: concurrent first Runs of a report (run
// under -race) agree, and once it has rendered, asking again returns the
// identical text without running a grid.
func TestRunKeepsRenderedReports(t *testing.T) {
	var grids atomic.Int64
	r := NewRunner(tinyWorkloads, 1, func(ctx context.Context, cells []sim.Cell) ([]sim.Result, error) {
		grids.Add(1)
		return syntheticGrid(ctx, cells)
	})
	for _, name := range Names() {
		outs := make([]string, 4)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if outs[i], err = r.Run(ctx, name); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		before := grids.Load()
		again, err := r.Run(ctx, name)
		if err != nil || grids.Load() != before || slices.ContainsFunc(outs, func(o string) bool { return o != again }) {
			t.Fatalf("%s: repeated Run ran %d grids (err %v), or renders differ", name, grids.Load()-before, err)
		}
	}
}

// TestRunFailureNotKept: a render whose grid lost cells to a permanent
// fault keeps no text. The next Run re-runs exactly the missing cells and
// renders what a fault-free runner renders.
func TestRunFailureNotKept(t *testing.T) {
	synthetic := sim.RunnerFunc(func(_ context.Context, c sim.Cell) (*stats.Run, error) { return syntheticRun(c), nil })
	plan := &faultinject.Plan{Seed: 3, CorruptTraceRate: 0.3}
	var grids [][]cellKey
	r := NewRunner(tinyWorkloads, 1, func(ctx context.Context, cells []sim.Cell) ([]sim.Result, error) {
		var keys []cellKey
		for _, c := range cells {
			keys = append(keys, cellKey{c.Config.Name, c.Workload})
		}
		grids = append(grids, keys)
		pool := &sim.Pool{Jobs: 2, Chaos: plan}
		plan = nil // the faults hit the first grid only
		return pool.RunWith(ctx, cells, synthetic), nil
	})
	if _, err := r.Run(ctx, "fig7"); err == nil {
		t.Fatal("fig7 over a faulted grid succeeded")
	}
	var lost []cellKey
	for _, k := range grids[0] {
		if !slices.ContainsFunc(r.Snapshot(), func(run stats.Run) bool { return run.Config == k.cfg && run.Workload == k.wl }) {
			lost = append(lost, k)
		}
	}
	if len(lost) == 0 || len(lost) == len(grids[0]) {
		t.Fatalf("the fault plan failed %d of %d cells; pick a seed that fails some", len(lost), len(grids[0]))
	}
	out, err := r.Run(ctx, "fig7")
	want, _ := NewRunner(tinyWorkloads, 1, syntheticGrid).Run(ctx, "fig7")
	if err != nil || out != want || len(grids) != 2 || !slices.Equal(grids[1], lost) {
		t.Fatalf("retry: err %v, ran %v, want only the missing %v; fault-free render matches: %v", err, grids[1:], lost, out == want)
	}
	if again, err := r.Run(ctx, "fig7"); err != nil || again != out || len(grids) != 2 {
		t.Fatalf("fig7 after the retry: err %v, %d grids run, want the kept text", err, len(grids))
	}
}

func TestRunnerParallelDeterminism(t *testing.T) {
	a, err := tinyRunner(4, 1).Collect(ctx, "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyRunner(1, 1).Collect(ctx, "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range tinyWorkloads {
		ra, rb := a.Get("SpecSched_4", wl), b.Get("SpecSched_4", wl)
		if *ra != *rb {
			t.Fatalf("%s: parallel and serial runs differ", wl)
		}
	}
}

// summaryRuns runs the summary report's sweep (every config the headline
// numbers need) on a jobs-wide pool and returns the resulting pooled runs.
func summaryRuns(t *testing.T, jobs int) []stats.Run {
	t.Helper()
	r := tinyRunner(jobs, 1)
	if _, err := r.Run(ctx, "summary"); err != nil {
		t.Fatal(err)
	}
	return r.Snapshot()
}

func assertSetsIdentical(t *testing.T, a, b *stats.Set, what string) {
	t.Helper()
	ac, bc := a.Configs(), b.Configs()
	if len(ac) != len(bc) {
		t.Fatalf("%s: config count %d vs %d", what, len(ac), len(bc))
	}
	for _, cn := range ac {
		for _, wl := range a.Workloads() {
			ra, rb := a.Get(cn, wl), b.Get(cn, wl)
			if (ra == nil) != (rb == nil) {
				t.Fatalf("%s: %s/%s present in one set only", what, cn, wl)
			}
			if ra != nil && *ra != *rb {
				t.Fatalf("%s: %s/%s differs:\n a=%+v\n b=%+v", what, cn, wl, *ra, *rb)
			}
		}
	}
}

// TestSummarySweepBitIdenticalAcrossJobs pins the pool's determinism
// contract on the summary report's sweep: one worker and eight workers must
// produce bit-identical statistics, cell scheduling order notwithstanding.
func TestSummarySweepBitIdenticalAcrossJobs(t *testing.T) {
	serial, pooled := summaryRuns(t, 1), summaryRuns(t, 8)
	if len(serial) == 0 || !slices.Equal(serial, pooled) {
		t.Fatalf("jobs=1 vs jobs=8: pooled runs differ:\n serial=%+v\n pooled=%+v", serial, pooled)
	}
}

// TestSeedReplicasPoolDeterministically: multi-seed sweeps must pool
// replicas in seed order regardless of worker count, and must actually
// change the statistics relative to a single-seed sweep.
func TestSeedReplicasPoolDeterministically(t *testing.T) {
	a, err := tinyRunner(1, 3).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyRunner(8, 3).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	assertSetsIdentical(t, a, b, "seeds=3 jobs=1 vs jobs=8")

	c, err := tinyRunner(0, 1).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	r3, r1 := a.Get("Baseline_0", "gzip"), c.Get("Baseline_0", "gzip")
	if r3.Cycles <= r1.Cycles {
		t.Fatalf("3-seed pooled cycles %d not larger than 1-seed %d", r3.Cycles, r1.Cycles)
	}
}

// TestCollectReportsFailedCellsAfterSweep: a bad workload fails its own
// cells and is named in the error; the error arrives after the sweep (the
// healthy cells of the same grid still ran and were cached).
func TestCollectReportsFailedCellsAfterSweep(t *testing.T) {
	r := tinyRunner(0, 1, "gzip", "nonexistent")
	_, err := r.Collect(ctx, "Baseline_0")
	if err == nil {
		t.Fatal("sweep with a broken cell must error")
	}
	if !strings.Contains(err.Error(), "nonexistent") || !strings.Contains(err.Error(), "cells failed") {
		t.Fatalf("error does not name the failed cells: %v", err)
	}
	if got := r.Snapshot(); len(got) != 1 || got[0].Config != "Baseline_0" || got[0].Workload != "gzip" {
		t.Fatal("healthy cell was not completed despite the failing sibling")
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := tinyRunner(0, 1)
	if _, err := r.Run(ctx, "fig42"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunDispatch(t *testing.T) {
	r := tinyRunner(0, 1)
	for _, name := range []string{"table1", "summary"} {
		out, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out == "" {
			t.Fatalf("%s: empty report", name)
		}
	}
}

func TestUnknownWorkloadPropagates(t *testing.T) {
	r := tinyRunner(0, 1, "nonexistent")
	if _, err := r.Table2(ctx); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestAblationsRun(t *testing.T) {
	r := tinyRunner(0, 1)
	out, err := r.Ablations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NoSilence", "NoSLB", "SetInterleave", "IQRetention", "Crit_1K"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestReplaySchemesAgnosticism(t *testing.T) {
	r := tinyRunner(0, 1)
	out, err := r.ReplaySchemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SS4_alpha", "SS4_selective", "Crit_selective", "agnostic"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay-schemes report missing %q", want)
		}
	}
}

// TestRunnerTraces pins trace replay under the report runner: the Table 2
// report over recorded traces equals the live one for the recorded
// workloads.
func TestRunnerTraces(t *testing.T) {
	const warm, measure = 1000, 5000
	dir := t.TempDir()
	traces := make(sim.TraceSet)
	for _, wl := range []string{"gzip", "hmmer"} {
		p, err := trace.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, wl+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := traceio.Record(f, trace.New(p), warm+measure+8192, "test:"+wl, p.Seed); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ref, err := sim.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[ref.Name] = ref
	}

	wls := []string{"gzip", "hmmer"}
	replayed, err := NewRunner(wls, 1, localGrid(0, warm, measure, traces)).Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewRunner(wls, 1, localGrid(0, warm, measure, nil)).Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != live {
		t.Errorf("trace-driven Table 2 differs from live:\n-- replayed --\n%s\n-- live --\n%s", replayed, live)
	}
}
