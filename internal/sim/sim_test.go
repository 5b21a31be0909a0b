package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
)

func testGrid(t *testing.T, cfgNames []string, workloads []string, seeds int) []Cell {
	t.Helper()
	var cells []Cell
	for _, cn := range cfgNames {
		cfg, err := config.Preset(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads {
			for s := 0; s < seeds; s++ {
				cells = append(cells, Cell{Config: cfg, Workload: wl, SeedIdx: s})
			}
		}
	}
	return cells
}

// fakeRun synthesizes a deterministic Run from cell coordinates, so pool
// tests need no simulation.
func fakeRun(c Cell) (*stats.Run, error) {
	return &stats.Run{
		Workload:  c.Workload,
		Config:    c.Config.Name,
		Cycles:    int64(len(c.Workload)) + int64(c.SeedIdx),
		Committed: int64(c.Config.IssueToExecuteDelay),
	}, nil
}

// fakeCell adapts fakeRun to the context-threaded pool signature.
func fakeCell(_ context.Context, c Cell) (*stats.Run, error) { return fakeRun(c) }

func TestPoolResultsInCellOrder(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	for _, jobs := range []int{1, 3, 8, 32} {
		p := &Pool{Jobs: jobs}
		results := p.RunWith(context.Background(), cells, RunnerFunc(fakeCell))
		if len(results) != len(cells) {
			t.Fatalf("jobs=%d: %d results for %d cells", jobs, len(results), len(cells))
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("jobs=%d: cell %s failed: %v", jobs, cells[i], res.Err)
			}
			if res.Cell != cells[i] {
				t.Fatalf("jobs=%d: result %d is for %s, want %s", jobs, i, res.Cell, cells[i])
			}
			want, _ := fakeRun(cells[i])
			if *res.Run != *want {
				t.Fatalf("jobs=%d: cell %s run mismatch", jobs, cells[i])
			}
		}
	}
}

func TestPoolPanicIsolation(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip", "mcf", "swim", "art"}, 1)
	p := &Pool{Jobs: 4}
	results := p.RunWith(context.Background(), cells, RunnerFunc(func(_ context.Context, c Cell) (*stats.Run, error) {
		if c.Workload == "mcf" {
			panic("diverging configuration")
		}
		return fakeRun(c)
	}))
	var failed, ok int
	for _, res := range results {
		if res.Err != nil {
			failed++
			if !strings.Contains(res.Err.Error(), "panicked") ||
				!strings.Contains(res.Err.Error(), "diverging configuration") {
				t.Fatalf("panic error lost its cause: %v", res.Err)
			}
			if res.Cell.Workload != "mcf" {
				t.Fatalf("wrong cell failed: %s", res.Cell)
			}
		} else {
			ok++
		}
	}
	if failed != 1 || ok != 3 {
		t.Fatalf("failed=%d ok=%d, want 1/3 — a panic must fail its cell only", failed, ok)
	}
}

func TestPoolCellTimeout(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip", "mcf", "swim"}, 1)
	p := &Pool{Jobs: 3, CellTimeout: 20 * time.Millisecond}
	results := p.RunWith(context.Background(), cells, RunnerFunc(func(_ context.Context, c Cell) (*stats.Run, error) {
		if c.Workload == "swim" {
			time.Sleep(2 * time.Second) // a "diverging" cell
		}
		return fakeRun(c)
	}))
	for _, res := range results {
		if res.Cell.Workload == "swim" {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "timeout") {
				t.Fatalf("diverging cell did not time out: %v", res.Err)
			}
		} else if res.Err != nil {
			t.Fatalf("healthy cell %s failed: %v", res.Cell, res.Err)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if got := DeriveSeed(1234, "gzip", 0); got != 1234 {
		t.Fatalf("seed index 0 must preserve the calibrated profile seed, got %d", got)
	}
	seen := map[uint64]string{}
	for _, wl := range []string{"gzip", "mcf"} {
		for idx := 1; idx <= 4; idx++ {
			s := DeriveSeed(1234, wl, idx)
			if s2 := DeriveSeed(1234, wl, idx); s2 != s {
				t.Fatalf("DeriveSeed not deterministic: %d vs %d", s, s2)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s#%d and %s", wl, idx, prev)
			}
			seen[s] = fmt.Sprintf("%s#%d", wl, idx)
		}
	}
}

// TestSimulateMatchesDirectRun pins the bit-compatibility contract: a
// seed-0 cell through the orchestration layer is the identical simulation
// as the historical direct core.New + Run path.
func TestSimulateMatchesDirectRun(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateCell(context.Background(), Cell{Config: cfg, Workload: "gzip"}, 2000, 8000, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(cfg, trace.New(p), p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkloadName("gzip")
	want := c.Run(2000, 8000)
	if *got != *want {
		t.Fatalf("pool cell diverged from direct run:\n got %+v\nwant %+v", *got, *want)
	}
}

// TestSeedReplicasDiffer checks replicas actually decorrelate: a seed-1
// cell must produce different dynamics than seed 0.
func TestSeedReplicasDiffer(t *testing.T) {
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	r0, err := SimulateCell(context.Background(), Cell{Config: cfg, Workload: "gzip", SeedIdx: 0}, 1000, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := SimulateCell(context.Background(), Cell{Config: cfg, Workload: "gzip", SeedIdx: 1}, 1000, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cycles == r1.Cycles && r0.Issued == r1.Issued && r0.L1Misses == r1.L1Misses {
		t.Fatal("seed replica 1 is identical to replica 0 — DeriveSeed not reaching the generator")
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	const fp = "warmup=1,measure=2,sched=event"
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf"}, 2)

	cp, err := LoadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var simulated atomic.Int64
	run := func(_ context.Context, c Cell) (*stats.Run, error) { simulated.Add(1); return fakeRun(c) }
	first := (&Pool{Jobs: 4, Checkpoint: cp}).RunWith(context.Background(), cells, RunnerFunc(run))
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if int(simulated.Load()) != len(cells) {
		t.Fatalf("first sweep simulated %d of %d cells", simulated.Load(), len(cells))
	}

	// Resume: every cell must come from the checkpoint, bit-identical.
	cp2, err := LoadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != len(cells) {
		t.Fatalf("reloaded checkpoint has %d cells, want %d", cp2.Len(), len(cells))
	}
	simulated.Store(0)
	second := (&Pool{Jobs: 4, Checkpoint: cp2}).RunWith(context.Background(), cells, RunnerFunc(run))
	if simulated.Load() != 0 {
		t.Fatalf("resume re-simulated %d cells", simulated.Load())
	}
	for i := range cells {
		if !second[i].Cached {
			t.Fatalf("cell %s not satisfied from checkpoint", cells[i])
		}
		if !reflect.DeepEqual(*first[i].Run, *second[i].Run) {
			t.Fatalf("cell %s changed across resume", cells[i])
		}
	}

	// A partial grid extension simulates only the new cells.
	more := append(append([]Cell(nil), cells...),
		testGrid(t, []string{"Baseline_2"}, []string{"gzip"}, 1)...)
	cp3, err := LoadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	simulated.Store(0)
	(&Pool{Jobs: 2, Checkpoint: cp3}).RunWith(context.Background(), more, RunnerFunc(run))
	if simulated.Load() != 1 {
		t.Fatalf("extension simulated %d cells, want 1", simulated.Load())
	}
}

func TestCheckpointRejectsForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := LoadCheckpoint(path, "warmup=1,measure=2,sched=event")
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := config.Preset("Baseline_0")
	run, _ := fakeRun(Cell{Config: cfg, Workload: "gzip"})
	cp.Record(Cell{Config: cfg, Workload: "gzip"}, run)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, "warmup=9,measure=9,sched=scan"); err == nil {
		t.Fatal("checkpoint with mismatched sweep options must be rejected")
	}
}

// TestCheckpointRejectsChangedConfig: same cell key, different config
// contents — the digest guard must force a re-simulation.
func TestCheckpointRejectsChangedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	const fp = "fp"
	cfg, _ := config.Preset("SpecSched_4")
	cell := Cell{Config: cfg, Workload: "gzip"}
	cp, err := LoadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := fakeRun(cell)
	cp.Record(cell, run)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}

	cp2, err := LoadCheckpoint(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cp2.Lookup(cell); !ok {
		t.Fatal("unchanged config must hit the checkpoint")
	}
	changed := cell
	changed.Config.IQEntries *= 2 // same Name, different machine
	if _, ok := cp2.Lookup(changed); ok {
		t.Fatal("checkpoint hit for a config whose contents changed under the same name")
	}
}

// TestPoolIdleWorkerDrainsRest: a worker stuck on a slow cell must not
// strand the cells behind it. Cell 0 blocks until every other cell has
// run, so with two workers the pool finishes only if the free worker
// claims all the rest; any static split of the cells would deadlock here.
func TestPoolIdleWorkerDrainsRest(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	var others atomic.Int64
	othersDone := make(chan struct{})
	done := make(chan []Result, 1)
	go func() {
		done <- (&Pool{Jobs: 2}).RunWith(context.Background(), cells, RunnerFunc(func(_ context.Context, c Cell) (*stats.Run, error) {
			if c == cells[0] {
				<-othersDone
			} else if int(others.Add(1)) == len(cells)-1 {
				close(othersDone)
			}
			return fakeRun(c)
		}))
	}()
	select {
	case res := <-done:
		for i, r := range res {
			if r.Err != nil || r.Cell != cells[i] {
				t.Fatalf("cell %d: %s err=%v", i, r.Cell, r.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("pool stalled with %d/%d other cells run behind the blocked cell", others.Load(), len(cells)-1)
	}
}

// TestPoolCancellation: canceling the sweep context must stop the pool
// promptly, keep results completed before the cancel, fail the rest with
// the cancellation cause, and leave completed cells in the checkpoint so
// the sweep is resumable.
func TestPoolCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := LoadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip", "mcf", "swim", "art", "vpr", "gcc"}, 1)

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	p := &Pool{Jobs: 2, Checkpoint: cp}
	resultsCh := make(chan []Result, 1)
	go func() {
		resultsCh <- p.RunWith(ctx, cells, RunnerFunc(func(ctx context.Context, c Cell) (*stats.Run, error) {
			if started.Add(1) > 2 {
				// Workers should never reach a third cell after cancel.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			<-release // hold the first two cells until the test cancels
			return fakeRun(c)
		}))
	}()

	// Let both workers claim a cell, then cancel and release them.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	var results []Result
	select {
	case results = <-resultsCh:
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not return after cancel")
	}

	var completed, canceled int
	for _, res := range results {
		switch {
		case res.Err == nil && res.Run != nil:
			completed++
		case res.Err != nil && errors.Is(res.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("cell %s: unexpected outcome (run=%v err=%v)", res.Cell, res.Run, res.Err)
		}
	}
	if completed != 2 || completed+canceled != len(cells) {
		t.Fatalf("completed=%d canceled=%d of %d cells, want 2 completed and the rest canceled",
			completed, canceled, len(cells))
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != completed {
		t.Fatalf("checkpoint holds %d cells after cancel, want %d", cp2.Len(), completed)
	}
}

// TestPoolOnResultStreams: every finished cell (fresh and cached) must be
// delivered to OnResult exactly once, with its Run attached and its index
// in the grid.
func TestPoolOnResultStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := LoadCheckpoint(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf"}, 2)
	(&Pool{Jobs: 4, Checkpoint: cp}).RunWith(context.Background(), cells[:4], RunnerFunc(fakeCell))

	var streamed []Result
	p := &Pool{Jobs: 4, Checkpoint: cp, OnResult: func(i int, r Result) {
		if r.Cell.Key() != cells[i].Key() {
			t.Errorf("OnResult index %d carries cell %s, want %s", i, r.Cell, cells[i])
		}
		streamed = append(streamed, r)
	}}
	p.RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	if len(streamed) != len(cells) {
		t.Fatalf("streamed %d results for %d cells", len(streamed), len(cells))
	}
	seen := map[string]bool{}
	var cached int
	for _, r := range streamed {
		if r.Err != nil || r.Run == nil {
			t.Fatalf("streamed cell %s incomplete: %v", r.Cell, r.Err)
		}
		if seen[r.Cell.Key()] {
			t.Fatalf("cell %s streamed twice", r.Cell)
		}
		seen[r.Cell.Key()] = true
		if r.Cached {
			cached++
		}
	}
	if cached != 4 {
		t.Fatalf("streamed %d cached cells, want 4", cached)
	}
}

// recordTestTrace writes a trace of workload wl to dir and returns its ref.
func recordTestTrace(t *testing.T, dir, wl string, n int64) TraceRef {
	t.Helper()
	p, err := trace.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wl+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceio.Record(f, trace.New(p), n, "sim-test:"+wl, p.Seed); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestSimulateCellTraceMatchesLive pins the trace dispatch: a cell whose
// workload name resolves to a trace must replay to the exact Run the
// synthetic path produces, seed replica 0 being the recorded seed.
func TestSimulateCellTraceMatchesLive(t *testing.T) {
	const warm, measure = 1000, 5000
	dir := t.TempDir()
	ref := recordTestTrace(t, dir, "gzip", warm+measure+8192)
	if ref.Name != "gzip" {
		t.Fatalf("LoadTrace name = %q, want gzip", ref.Name)
	}
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Config: cfg, Workload: "gzip"}
	live, err := SimulateCell(context.Background(), cell, warm, measure, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := SimulateCell(context.Background(), cell, warm, measure, TraceSet{"gzip": ref})
	if err != nil {
		t.Fatal(err)
	}
	if *live != *replay {
		t.Fatalf("trace cell diverged from live cell:\n live   %+v\n replay %+v", *live, *replay)
	}

	// Replica 1 varies the wrong-path seed only; it must still complete
	// and may differ from replica 0 only through wrong-path effects.
	cell.SeedIdx = 1
	if _, err := SimulateCell(context.Background(), cell, warm, measure, TraceSet{"gzip": ref}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateCellTraceTooShort checks the window guard: a trace shorter
// than warmup+measure fails the cell with a clear error instead of
// deadlocking the core.
func TestSimulateCellTraceTooShort(t *testing.T) {
	dir := t.TempDir()
	ref := recordTestTrace(t, dir, "gzip", 2000)
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateCell(context.Background(), Cell{Config: cfg, Workload: "gzip"}, 1000, 5000, TraceSet{"gzip": ref})
	if err == nil || !strings.Contains(err.Error(), "records 2000") {
		t.Fatalf("want too-short trace error, got %v", err)
	}
}

// TestFingerprintTraces pins the digest-in-checkpoint rule: the
// fingerprint must change when a trace's contents change (same path, same
// name), must be order-independent, and must extend — not replace — the
// base fingerprint.
func TestFingerprintTraces(t *testing.T) {
	dir := t.TempDir()
	a := recordTestTrace(t, dir, "gzip", 3000)
	b := recordTestTrace(t, dir, "swim", 3000)
	base := Fingerprint(1000, 5000, config.SchedEvent)
	if got := FingerprintTraces(1000, 5000, nil); got != base {
		t.Errorf("no traces: fingerprint %q, want base %q", got, base)
	}
	fp := FingerprintTraces(1000, 5000, TraceSet{a.Name: a, b.Name: b})
	if !strings.HasPrefix(fp, base) {
		t.Errorf("trace fingerprint %q does not extend base %q", fp, base)
	}
	// Same set, different map iteration won't change the string (sorted).
	if again := FingerprintTraces(1000, 5000, TraceSet{b.Name: b, a.Name: a}); again != fp {
		t.Errorf("fingerprint not order-independent: %q vs %q", fp, again)
	}
	// A re-recorded trace with different contents must change it.
	c := recordTestTrace(t, dir, "gzip", 3001)
	if changed := FingerprintTraces(1000, 5000, TraceSet{c.Name: c, b.Name: b}); changed == fp {
		t.Error("fingerprint unchanged after trace contents changed")
	}
}
