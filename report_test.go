package specsched_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"specsched"
	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/results"
)

// reportWorkloads are three contrasting workloads (load-use chains over
// L1 hits, bank-conflict-prone, miss-heavy) for the Report-path tests.
var reportWorkloads = []string{"gzip", "hmmer", "xalancbmk"}

// findRun returns the (config, workload) record of runs, or fails.
func findRun(t *testing.T, runs []results.Run, cfg, wl string) results.Run {
	t.Helper()
	for _, r := range runs {
		if r.Config == cfg && r.Workload == wl {
			return r
		}
	}
	t.Fatalf("no %s/%s record among %d runs", cfg, wl, len(runs))
	return results.Run{}
}

// TestReportHonorsZeroWarmup: Report simulates exactly the window Run
// does. An explicit zero Warmup is a zero warmup on both paths, so the
// report's Baseline_0 record equals Run's cell and the report simulates
// the measurement window only.
func TestReportHonorsZeroWarmup(t *testing.T) {
	const measure = 2000
	window := specsched.SweepSpec{Workloads: []string{"gzip"}, Warmup: i64(0), Measure: i64(measure)}
	grid := window
	grid.Configs = []string{"Baseline_0"}
	cells, err := mustSweep(t, grid).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sw := mustSweep(t, window)
	if _, err := sw.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	got := findRun(t, sw.Snapshot(), "Baseline_0", "gzip")
	if want := cells[0].Run.MaskSchedulerCounters(); got.MaskSchedulerCounters() != want {
		t.Fatalf("Report's Baseline_0/gzip differs from Run's cell:\n report %+v\n run    %+v", got, want)
	}
	if n := sw.SimulatedUOps(); n != measure {
		t.Fatalf("report simulated %d µ-ops, want the %d-µ-op measurement window only", n, measure)
	}
}

// TestReportCheckpointResume: a second sweep pointed at the same
// checkpoint re-simulates nothing and reproduces identical statistics; a
// wider report only simulates the new configurations.
func TestReportCheckpointResume(t *testing.T) {
	const warmup, measure = 3000, 15000
	spec := specsched.SweepSpec{
		Workloads:  reportWorkloads,
		Warmup:     i64(warmup),
		Measure:    i64(measure),
		Checkpoint: filepath.Join(t.TempDir(), "sweep.ckpt"),
	}

	s1 := mustSweep(t, spec)
	if _, err := s1.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	if s1.SimulatedUOps() == 0 {
		t.Fatal("first sweep simulated nothing")
	}

	s2 := mustSweep(t, spec)
	if _, err := s2.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	if n := s2.SimulatedUOps(); n != 0 {
		t.Fatalf("resumed sweep re-simulated %d µ-ops, want 0", n)
	}
	if a, b := s1.Snapshot(), s2.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("fresh vs resumed runs differ:\n fresh   %+v\n resumed %+v", a, b)
	}

	// Extending the grid only pays for the new configs: fig5 adds
	// SpecSched_4 and SpecSched_4_Shift to the checkpointed Baseline_0.
	s3 := mustSweep(t, spec)
	if _, err := s3.Report(ctx, "fig5"); err != nil {
		t.Fatal(err)
	}
	perCfg := int64(warmup+measure) * int64(len(reportWorkloads))
	if n := s3.SimulatedUOps(); n != 2*perCfg {
		t.Fatalf("extended sweep simulated %d µ-ops, want %d (two configs)", n, 2*perCfg)
	}
}

// TestReportCanceledFlushesCheckpoint: canceling a report mid-flight must
// surface context.Canceled, keep the completed cells in the checkpoint,
// and let a resumed sweep pick up from there without re-simulating them.
func TestReportCanceledFlushesCheckpoint(t *testing.T) {
	// Long cells so the cancel lands mid-sweep.
	const warmup, measure = 3000, 150000
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	spec := specsched.SweepSpec{
		Workloads:  reportWorkloads,
		Warmup:     i64(warmup),
		Measure:    i64(measure),
		Jobs:       1,
		Checkpoint: ckpt,
	}

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sw := mustSweep(t, spec,
		specsched.SweepProgress(func(specsched.Progress) { once.Do(cancel) })) // cancel after the 1st cell
	_, err := sw.Report(cctx, "table2")
	if err == nil || !errors.Is(err, context.Canceled) || !errors.Is(err, specsched.ErrCanceled) {
		t.Fatalf("canceled report returned %v, want context.Canceled and ErrCanceled", err)
	}

	cp, err := sim.LoadCheckpoint(ckpt, sim.Fingerprint(warmup, measure, config.SchedEvent))
	if err != nil {
		t.Fatalf("checkpoint unusable after cancel: %v", err)
	}
	if cp.Len() == 0 {
		t.Fatal("no completed cells in the checkpoint after cancel")
	}
	done := cp.Len()

	// Resume: the completed cells are served from the checkpoint.
	resumed := mustSweep(t, spec)
	if _, err := resumed.Report(context.Background(), "table2"); err != nil {
		t.Fatal(err)
	}
	want := int64(warmup+measure) * int64(len(reportWorkloads)-done)
	if got := resumed.SimulatedUOps(); got != want {
		t.Fatalf("resume simulated %d µ-ops, want %d (%d cells were checkpointed)", got, want, done)
	}
}

// TestReportReusesRunCheckpoint: Run and Report share one checkpoint, so a
// report over cells the same sweep's Run already computed simulates
// nothing and reports Run's counters.
func TestReportReusesRunCheckpoint(t *testing.T) {
	sw := mustSweep(t, specsched.SweepSpec{
		Configs:    []string{"Baseline_0"},
		Workloads:  []string{"gzip", "hmmer"},
		Warmup:     i64(1000),
		Measure:    i64(4000),
		Checkpoint: filepath.Join(t.TempDir(), "sweep.ckpt"),
	})
	cells, err := sw.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ran := sw.SimulatedUOps()
	if ran == 0 {
		t.Fatal("Run simulated nothing")
	}
	if _, err := sw.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	if n := sw.SimulatedUOps() - ran; n != 0 {
		t.Fatalf("Report re-simulated %d µ-ops of cells Run checkpointed", n)
	}
	runs := sw.Snapshot()
	for _, c := range cells {
		if got := findRun(t, runs, c.Config, c.Workload); got.MaskSchedulerCounters() != c.Run.MaskSchedulerCounters() {
			t.Fatalf("%s: report record differs from Run's cell", c.CellRef)
		}
	}
}

// TestReportUsesCellCache: a Report on a sweep attached to a CellCache is
// served the Baseline_0 cells another attached sweep's Run computed — the
// cache counts hits, and nothing is simulated again.
func TestReportUsesCellCache(t *testing.T) {
	cache := specsched.NewCellCache(0)
	window := specsched.SweepSpec{Workloads: []string{"gzip", "hmmer"}, Warmup: i64(1000), Measure: i64(4000)}
	grid := window
	grid.Configs = []string{"Baseline_0"}
	if _, err := mustSweep(t, grid, specsched.SweepCellCache(cache)).Run(ctx); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()

	sw := mustSweep(t, window, specsched.SweepCellCache(cache))
	if _, err := sw.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if hits := after.Hits - before.Hits; hits != 2 {
		t.Fatalf("report took %d cells from the cache, want 2", hits)
	}
	if after.Simulated != before.Simulated || sw.SimulatedUOps() != 0 {
		t.Fatalf("report re-simulated cached cells: cache executed %d→%d, sweep simulated %d µ-ops",
			before.Simulated, after.Simulated, sw.SimulatedUOps())
	}
}

// TestSweepConcurrentRunAndReport: Run and Report called at once on one
// sweep share its checkpoint, workload axis and counters; both succeed,
// and the report agrees with Run's cells.
func TestSweepConcurrentRunAndReport(t *testing.T) {
	sw := mustSweep(t, specsched.SweepSpec{
		Configs:    []string{"Baseline_0"},
		Workloads:  []string{"gzip", "hmmer"},
		Warmup:     i64(1000),
		Measure:    i64(4000),
		Checkpoint: filepath.Join(t.TempDir(), "sweep.ckpt"),
	})
	var wg sync.WaitGroup
	var cells []specsched.Cell
	var runErr, reportErr error
	wg.Add(2)
	go func() { defer wg.Done(); cells, runErr = sw.Run(ctx) }()
	go func() { defer wg.Done(); _, reportErr = sw.Report(ctx, "table2") }()
	wg.Wait()
	if runErr != nil || reportErr != nil {
		t.Fatalf("Run: %v, Report: %v", runErr, reportErr)
	}
	runs := sw.Snapshot()
	for _, c := range cells {
		if got := findRun(t, runs, c.Config, c.Workload); got.MaskSchedulerCounters() != c.Run.MaskSchedulerCounters() {
			t.Fatalf("%s: report record differs from Run's cell", c.CellRef)
		}
	}
}
