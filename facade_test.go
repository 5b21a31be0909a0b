package specsched_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"specsched"
	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/trace"
	"specsched/presets"
	"specsched/results"
)

var ctx = context.Background()

// TestSimulatorMatchesDirectCore pins the façade's bit-compatibility
// contract: a Simulator run is the identical simulation as the historical
// direct core.New + Run path — every counter equal, field by field.
func TestSimulatorMatchesDirectCore(t *testing.T) {
	got, err := specsched.NewSimulator(
		specsched.WithWorkload("gzip"),
		specsched.WithPreset("SpecSched_4"),
		specsched.Warmup(2000),
		specsched.Measure(8000),
	).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(cfg, trace.New(p), p.Seed)
	c.SetWorkloadName("gzip")
	want := c.Run(2000, 8000)
	if got.Elapsed <= 0 {
		t.Error("façade run lost its Elapsed annotation")
	}
	want.Elapsed = got.Elapsed // the façade's wall-clock annotation

	wv := reflect.ValueOf(want).Elem()
	gv := reflect.ValueOf(got)
	wt := wv.Type()
	for i := 0; i < wt.NumField(); i++ {
		name := wt.Field(i).Name
		if g, w := gv.FieldByName(name), wv.Field(i); !w.Equal(g) {
			t.Errorf("façade diverged from direct core run: %s = %v, want %v", name, g, w)
		}
	}
}

// TestSimulatorSeedOverride: the seed option must reach the generator
// (different dynamics) and be reproducible (same seed, same run).
func TestSimulatorSeedOverride(t *testing.T) {
	run := func(seed uint64) results.Run {
		opts := []specsched.Option{
			specsched.WithWorkload("gzip"),
			specsched.WithPreset("Baseline_0"),
			specsched.Warmup(1000),
			specsched.Measure(5000),
		}
		if seed != 0 {
			opts = append(opts, specsched.WithSeed(seed))
		}
		r, err := specsched.NewSimulator(opts...).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r.Elapsed = 0
		return r
	}
	base, a1, a2, b := run(0), run(11), run(11), run(12)
	if a1 != a2 {
		t.Fatal("same seed must reproduce the identical run")
	}
	if a1 == base || a1 == b {
		t.Fatal("seed override did not change the simulation")
	}
}

// TestErrorTaxonomy: every failure mode maps to exactly the documented
// sentinel.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		sim  *specsched.Simulator
		want error
	}{
		{"unknown workload",
			specsched.NewSimulator(specsched.WithWorkload("nope")),
			specsched.ErrUnknownWorkload},
		{"no workload",
			specsched.NewSimulator(),
			specsched.ErrUnknownWorkload},
		{"unknown preset",
			specsched.NewSimulator(specsched.WithWorkload("gzip"), specsched.WithPreset("Baseline_3")),
			specsched.ErrInvalidConfig},
		{"invalid custom profile",
			specsched.NewSimulator(specsched.WithWorkloadSpec(
				specsched.CustomWorkload(specsched.Profile{Name: "bad", Blocks: 1}))),
			specsched.ErrInvalidConfig},
	}
	for _, tc := range cases {
		if _, err := tc.sim.Run(ctx); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not match %v", tc.name, err, tc.want)
		}
	}

	if _, err := mustSweep(t, specsched.SweepSpec{}).Run(ctx); !errors.Is(err, specsched.ErrInvalidConfig) {
		t.Errorf("config-less sweep: %v, want ErrInvalidConfig", err)
	}
	if _, err := specsched.NewSweepFromSpec(specsched.SweepSpec{
		Configs:   []string{"Baseline_0"},
		Workloads: []string{"nope"},
	}); !errors.Is(err, specsched.ErrUnknownWorkload) {
		t.Errorf("sweep with unknown workload: %v, want ErrUnknownWorkload", err)
	}
}

// mustSweep builds a sweep from spec and opts, failing the test or
// benchmark if the spec does not validate.
func mustSweep(tb testing.TB, spec specsched.SweepSpec, opts ...specsched.SweepOption) *specsched.Sweep {
	tb.Helper()
	sw, err := specsched.NewSweepFromSpec(spec, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return sw
}

// gridSpec is the grid most sweep tests run: two configurations × two
// workloads × two seeds at short windows.
func gridSpec() specsched.SweepSpec {
	return specsched.SweepSpec{
		Configs:   []string{"Baseline_0", "SpecSched_4"},
		Workloads: []string{"gzip", "hmmer"},
		Seeds:     2,
		Warmup:    i64(1000),
		Measure:   i64(4000),
	}
}

// TestDeprecatedSweepSetters pins the setters kept for the perfbench
// module: they write exactly the spec fields NewSweepFromSpec takes.
func TestDeprecatedSweepSetters(t *testing.T) {
	got := specsched.NewSweep(specsched.SweepWorkloads("gzip", "mcf"), specsched.SweepJobs(3),
		specsched.SweepWarmup(500), specsched.SweepMeasure(2000)).Spec()
	want := mustSweep(t, specsched.SweepSpec{Workloads: []string{"gzip", "mcf"}, Jobs: 3,
		Warmup: i64(500), Measure: i64(2000)}).Spec()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewSweep setters built\n %+v\nwant\n %+v", got, want)
	}
}

// TestSweepStreamEqualsRun: the cells streamed by Results must equal the
// merged grid Run returns, bit for bit — same coordinates, same counters —
// regardless of completion order.
func TestSweepStreamEqualsRun(t *testing.T) {
	spec := gridSpec()
	spec.Jobs = 1
	grid, err := mustSweep(t, spec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2*2*2 {
		t.Fatalf("grid has %d cells, want 8", len(grid))
	}

	streamed := map[specsched.CellRef]results.Run{}
	spec.Jobs = 4
	for cell, cerr := range mustSweep(t, spec).Results(ctx) {
		if cerr != nil {
			t.Fatalf("streamed cell %s failed: %v", cell.CellRef, cerr)
		}
		if _, dup := streamed[cell.CellRef]; dup {
			t.Fatalf("cell %s streamed twice", cell.CellRef)
		}
		cell.Run.Elapsed = 0
		streamed[cell.CellRef] = cell.Run
	}
	if len(streamed) != len(grid) {
		t.Fatalf("streamed %d cells, grid has %d", len(streamed), len(grid))
	}
	for _, cell := range grid {
		got, ok := streamed[cell.CellRef]
		if !ok {
			t.Fatalf("cell %s missing from the stream", cell.CellRef)
		}
		cell.Run.Elapsed = 0
		if got != cell.Run {
			t.Fatalf("cell %s: streamed run differs from merged grid:\n stream %+v\n grid   %+v",
				cell.CellRef, got, cell.Run)
		}
	}
}

// TestSweepResultsEarlyBreak: breaking out of the iteration must stop the
// sweep instead of leaking the pool.
func TestSweepResultsEarlyBreak(t *testing.T) {
	n := 0
	for range mustSweep(t, gridSpec()).Results(ctx) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("iterated %d cells after break-at-2", n)
	}
}

// TestSweepCancelPromptlyWithCheckpoint is the acceptance test for
// cancellation: canceling mid-sweep returns ErrCanceled promptly, leaves a
// valid resumable checkpoint holding the completed cells, and a fresh
// sweep over the same grid serves them from the checkpoint.
func TestSweepCancelPromptlyWithCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cctx, cancel := context.WithCancel(ctx)
	var once sync.Once
	spec := specsched.SweepSpec{
		Configs:   []string{"Baseline_0"},
		Workloads: []string{"gzip", "mcf", "swim"},
		Warmup:    i64(1000),
		// Cells long enough (hundreds of ms) that the cancel always lands
		// mid-cell.
		Measure:    i64(300000),
		Jobs:       1,
		Checkpoint: ckpt,
	}

	start := time.Now()
	cells, err := mustSweep(t, spec,
		specsched.SweepProgress(func(specsched.Progress) { once.Do(cancel) })).Run(cctx)
	if !errors.Is(err, specsched.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v, want ErrCanceled (and context.Canceled)", err)
	}
	// The first cell completes, then the cancel fires and the in-flight
	// cell must abort within the core's poll interval — bound the whole
	// tail generously for race-detector CI.
	if tail := time.Since(start); tail > 30*time.Second {
		t.Fatalf("cancel took %v to unwind", tail)
	}
	var done int
	for _, c := range cells {
		switch {
		case c.Err == nil:
			done++
		case !errors.Is(c.Err, specsched.ErrCanceled):
			t.Fatalf("cell %s failed with %v, want a cancellation error", c.CellRef, c.Err)
		}
	}
	if done == 0 {
		t.Fatal("no cell completed before the cancel")
	}

	// The checkpoint is valid and complete cells resume from it.
	resumed, err := mustSweep(t, spec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	for _, c := range resumed {
		if c.Cached {
			cached++
		}
	}
	if cached < done {
		t.Fatalf("resume served %d cells from the checkpoint, want >= %d", cached, done)
	}
}

// TestSweepProgressAccounting pins the public progress counters on a grid
// resumed from a partial checkpoint: one event per cell from one
// goroutine, Done counting up to Total, and Cached, Failed and per-cell
// Attempts matching the cells Run returns. Baseline_0/gzip comes from the
// checkpoint; SpecSched_4/gzip fails its first attempt (injected
// transient) and succeeds on the retry; every cell of a trace too short
// for the window fails for good.
func TestSweepProgressAccounting(t *testing.T) {
	dir := t.TempDir()
	short := filepath.Join(dir, "short.trace")
	if err := specsched.WorkloadByName("gzip").Record(short, 2000); err != nil {
		t.Fatal(err)
	}
	spec := specsched.SweepSpec{
		Configs:      []string{"Baseline_0"},
		Workloads:    []string{"gzip", "short"},
		Traces:       []string{short},
		Seeds:        2,
		Warmup:       i64(500),
		Measure:      i64(2000),
		Checkpoint:   filepath.Join(dir, "sweep.ckpt"),
		Retries:      2,
		RetryBackoff: specsched.Duration(time.Millisecond),
	}
	if _, err := mustSweep(t, spec).Run(ctx); err == nil {
		t.Fatal("partial sweep over a too-short trace succeeded")
	}

	spec.Configs = append(spec.Configs, "SpecSched_4")
	spec.Chaos = &specsched.Chaos{TransientRate: 1, MaxFaultsPerCell: 1}
	var events []specsched.Progress
	cells, err := mustSweep(t, spec,
		specsched.SweepProgress(func(p specsched.Progress) { events = append(events, p) })).Run(ctx)
	if err == nil {
		t.Fatal("sweep over a too-short trace succeeded")
	}
	if len(events) != len(cells) || len(cells) != 8 {
		t.Fatalf("%d progress events for %d cells, want 8 each", len(events), len(cells))
	}
	byRef := make(map[specsched.CellRef]specsched.Cell, len(cells))
	for _, c := range cells {
		byRef[c.CellRef] = c
	}
	for i, p := range events {
		c := byRef[p.Cell]
		if p.Done != i+1 || p.Total != len(cells) {
			t.Fatalf("event %d: Done/Total = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(cells))
		}
		if p.IsCache != c.Cached || p.Attempts != c.Attempts || (p.Err == nil) != (c.Err == nil) {
			t.Fatalf("event %d for %s: IsCache=%v Attempts=%d Err=%v; cell has %v/%d/%v",
				i, p.Cell, p.IsCache, p.Attempts, p.Err, c.Cached, c.Attempts, c.Err)
		}
		want := 2 // the injected transient, then the real outcome
		if c.Cached {
			want = 0
		}
		if p.Attempts != want {
			t.Fatalf("event %d for %s: Attempts = %d, want %d", i, p.Cell, p.Attempts, want)
		}
	}
	last := events[len(events)-1]
	if last.Cached != 2 || last.Failed != 4 || last.Deduped != 0 {
		t.Fatalf("final progress Cached/Failed/Deduped = %d/%d/%d, want 2/4/0",
			last.Cached, last.Failed, last.Deduped)
	}
}

// TestSweepReportCacheShared: two reports on one Sweep share simulations
// (every figure needs Baseline_0, which must only run once).
func TestSweepReportCacheShared(t *testing.T) {
	sweep := mustSweep(t, specsched.SweepSpec{
		Workloads: []string{"gzip", "hmmer"},
		Warmup:    i64(1000),
		Measure:   i64(4000),
	})
	if _, err := sweep.Report(ctx, "table2"); err != nil {
		t.Fatal(err)
	}
	after := sweep.SimulatedUOps()
	out, err := sweep.Report(ctx, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gzip") {
		t.Fatalf("report lost its rows:\n%s", out)
	}
	if sweep.SimulatedUOps() != after {
		t.Fatal("second identical report re-simulated cells")
	}
	if len(sweep.Snapshot()) == 0 {
		t.Fatal("snapshot empty after a report")
	}
}

// TestPresetsPackage sanity-checks the name helpers against the canonical
// listing.
func TestPresetsPackage(t *testing.T) {
	names := presets.Names()
	if len(names) == 0 {
		t.Fatal("no presets listed")
	}
	for _, n := range names {
		if !presets.Valid(n) {
			t.Errorf("listed preset %q does not validate", n)
		}
	}
	for _, n := range []string{
		presets.Baseline(0), presets.BaselineSingleLoad(),
		presets.SpecSched(4, true), presets.SpecSched(4, false),
		presets.Shift(4), presets.BankPred(4), presets.Ctr(4),
		presets.Filter(4), presets.Combined(4), presets.Crit(4),
		presets.WideWindow(presets.Baseline(0)),
	} {
		if !presets.Valid(n) {
			t.Errorf("constructed preset name %q does not validate", n)
		}
	}
	if presets.Valid(presets.Baseline(3)) {
		t.Error("unregistered delay 3 must not validate")
	}
	if got := presets.Crit(4); got != "SpecSched_4_Crit" {
		t.Errorf("Crit(4) = %q", got)
	}
}

// TestWorkloadTrace: the µ-op dump is non-empty and bounded.
func TestWorkloadTrace(t *testing.T) {
	uops, err := specsched.WorkloadByName("gzip").Trace(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(uops) != 10 {
		t.Fatalf("Trace returned %d µ-ops, want 10", len(uops))
	}
	if _, err := specsched.WorkloadByName("nope").Trace(1); !errors.Is(err, specsched.ErrUnknownWorkload) {
		t.Fatalf("Trace on unknown workload: %v", err)
	}
	kuops, err := specsched.StencilWorkload(1 << 10).Trace(3)
	if err != nil || len(kuops) != 3 {
		t.Fatalf("kernel trace: %v (%d µ-ops)", err, len(kuops))
	}
}

// TestTraceWorkloadRoundTrip pins the public record/replay contract end to
// end: Record a workload, simulate the trace, and get a Run bit-identical
// to the live simulation (Elapsed excluded — it is wall clock).
func TestTraceWorkloadRoundTrip(t *testing.T) {
	const warm, measure = 1000, 5000
	dir := t.TempDir()
	path := filepath.Join(dir, "gzip.trace")
	if err := specsched.WorkloadByName("gzip").Record(path, warm+measure+8192); err != nil {
		t.Fatal(err)
	}

	info, err := specsched.ReadTraceInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.UOps != warm+measure+8192 || !strings.HasPrefix(info.Generator, "profile:gzip") {
		t.Fatalf("unexpected trace info %+v", info)
	}
	if vinfo, err := specsched.VerifyTrace(path); err != nil || vinfo != info {
		t.Fatalf("VerifyTrace = %+v, %v; want %+v", vinfo, err, info)
	}

	run := func(w specsched.Workload) results.Run {
		r, err := specsched.NewSimulator(
			specsched.WithWorkloadSpec(w),
			specsched.WithPreset("SpecSched_4"),
			specsched.Warmup(warm),
			specsched.Measure(measure),
		).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r.Elapsed = 0
		return r
	}
	live := run(specsched.WorkloadByName("gzip"))
	replay := run(specsched.TraceWorkload(path))
	replay.Workload = live.Workload // display name differs only if stems differ
	if live != replay {
		t.Fatalf("trace replay diverged from live run:\n live   %+v\n replay %+v", live, replay)
	}

	// The io.Reader variant replays identically and is reusable.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr := specsched.TraceWorkloadReader(f)
	for i := 0; i < 2; i++ {
		rr := run(wr)
		rr.Workload = live.Workload
		if live != rr {
			t.Fatalf("reader replay %d diverged from live run", i)
		}
	}
}

// TestTraceErrorTaxonomy checks every ErrBadTrace path reachable through
// the public API.
func TestTraceErrorTaxonomy(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.trace")
	junk := filepath.Join(dir, "junk.trace")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.trace")
	if err := specsched.StreamWorkload(8<<10).Record(short, 2000); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"missing file", func() error { _, e := specsched.ReadTraceInfo(missing); return e }},
		{"junk info", func() error { _, e := specsched.ReadTraceInfo(junk); return e }},
		{"junk verify", func() error { _, e := specsched.VerifyTrace(junk); return e }},
		{"junk simulate", func() error {
			_, e := specsched.NewSimulator(specsched.WithWorkloadSpec(specsched.TraceWorkload(junk))).Run(ctx)
			return e
		}},
		{"window longer than trace", func() error {
			_, e := specsched.NewSimulator(
				specsched.WithWorkloadSpec(specsched.TraceWorkload(short)),
				specsched.Warmup(1000), specsched.Measure(60000)).Run(ctx)
			return e
		}},
		{"trace runs dry inside the fetch-ahead", func() error {
			// Count covers warmup+measure, but not the fetch-ahead past
			// the last committed µ-op: the run completes, yet its machine
			// state diverged from live generation — must fail, not return
			// silently different statistics.
			tight := filepath.Join(dir, "tight.trace")
			if err := specsched.WorkloadByName("gzip").Record(tight, 1000+5000+100); err != nil {
				return err
			}
			_, e := specsched.NewSimulator(
				specsched.WithWorkloadSpec(specsched.TraceWorkload(tight)),
				specsched.Warmup(1000), specsched.Measure(5000)).Run(ctx)
			return e
		}},
		{"sweep cell over too-short trace", func() error {
			cells, _ := mustSweep(t, specsched.SweepSpec{
				Configs: []string{"Baseline_0"},
				Traces:  []string{short},
				Warmup:  i64(1000), Measure: i64(60000)}).Run(ctx)
			if len(cells) != 1 {
				t.Fatalf("sweep returned %d cells, want 1", len(cells))
			}
			// The cell's own error must carry the sentinel, exactly like
			// the Simulator path reports the same defect.
			return cells[0].Err
		}},
		{"sweep over junk trace", func() error {
			_, e := specsched.NewSweepFromSpec(specsched.SweepSpec{
				Configs: []string{"Baseline_0"},
				Traces:  []string{junk}})
			return e
		}},
	} {
		if err := tc.err(); !errors.Is(err, specsched.ErrBadTrace) {
			t.Errorf("%s: error %v does not match ErrBadTrace", tc.name, err)
		}
	}

	// Recording an unbounded workload without a count is a config error,
	// not a trace error.
	if err := specsched.WorkloadByName("gzip").Record(filepath.Join(dir, "x.trace"), 0); !errors.Is(err, specsched.ErrInvalidConfig) {
		t.Errorf("count-less Record: %v, want ErrInvalidConfig", err)
	}
}

// TestSweepTraces runs a sweep grid over recorded traces and pins three
// properties: trace cells replay bit-identically to the synthetic cells
// they recorded, the workload axis defaults to the traces alone, and the
// checkpoint fingerprint embeds the trace digest (so a swapped file
// invalidates the checkpoint instead of contaminating the resume).
func TestSweepTraces(t *testing.T) {
	const warm, measure = 1000, 4000
	dir := t.TempDir()
	for _, wl := range []string{"gzip", "hmmer"} {
		if err := specsched.WorkloadByName(wl).Record(
			filepath.Join(dir, wl+".trace"), warm+measure+8192); err != nil {
			t.Fatal(err)
		}
	}
	glob := []string{filepath.Join(dir, "gzip.trace"), filepath.Join(dir, "hmmer.trace")}

	base := specsched.SweepSpec{
		Configs: []string{"Baseline_0", "SpecSched_4"},
		Warmup:  i64(warm),
		Measure: i64(measure),
	}
	liveSpec := base
	liveSpec.Workloads = []string{"gzip", "hmmer"}
	live, err := mustSweep(t, liveSpec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replaySpec := base
	replaySpec.Traces = glob
	replay, err := mustSweep(t, replaySpec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live) {
		t.Fatalf("trace sweep has %d cells, live sweep %d", len(replay), len(live))
	}
	for i := range live {
		lr, rr := live[i].Run, replay[i].Run
		lr.Elapsed, rr.Elapsed = 0, 0
		if live[i].CellRef != replay[i].CellRef || lr != rr {
			t.Fatalf("cell %d diverged:\n live   %v %+v\n replay %v %+v",
				i, live[i].CellRef, lr, replay[i].CellRef, rr)
		}
	}

	// Checkpointed trace sweep: resuming with an unchanged file reuses the
	// cells; swapping the trace contents under the same path is rejected.
	ckpt := filepath.Join(dir, "sweep.ckpt")
	withCkpt := replaySpec
	withCkpt.Checkpoint = ckpt
	if _, err := mustSweep(t, withCkpt).Run(ctx); err != nil {
		t.Fatal(err)
	}
	resumed, err := mustSweep(t, withCkpt).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, c := range resumed {
		if c.Cached {
			cached++
		}
	}
	if cached != len(resumed) {
		t.Fatalf("resume with unchanged traces reused %d/%d cells", cached, len(resumed))
	}
	if err := specsched.WorkloadByName("gzip").Record(
		filepath.Join(dir, "gzip.trace"), warm+measure+9000); err != nil {
		t.Fatal(err)
	}
	if _, err := mustSweep(t, withCkpt).Run(ctx); !errors.Is(err, specsched.ErrInvalidConfig) {
		t.Fatalf("resume against swapped trace: %v, want fingerprint rejection (ErrInvalidConfig)", err)
	}
}
