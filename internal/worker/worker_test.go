package worker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/internal/stats"
)

// TestMain installs the worker hook: when the supervisor under test
// re-execs this test binary with the EnvWorker marker, the child serves
// cells instead of running the tests.
func TestMain(m *testing.M) {
	MaybeServe()
	os.Exit(m.Run())
}

const (
	testWarmup  = int64(500)
	testMeasure = int64(2000)
)

func testCells(t *testing.T, cfgNames, workloads []string, seeds int) []sim.Cell {
	t.Helper()
	var cells []sim.Cell
	for _, cn := range cfgNames {
		cfg, err := config.Preset(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads {
			for s := 0; s < seeds; s++ {
				cells = append(cells, sim.Cell{Config: cfg, Workload: wl, SeedIdx: s})
			}
		}
	}
	return cells
}

func newTestPool(t *testing.T, workers int) *Pool {
	t.Helper()
	p, err := NewPool(Options{
		Workers:      workers,
		Warmup:       testWarmup,
		Measure:      testMeasure,
		BeatEvery:    20 * time.Millisecond,
		SpawnBackoff: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	in := frame{
		Type: frameRun, ID: 42,
		Cell: &cellSpec{
			Config: cfg, ConfigDigest: cfg.Digest(),
			Workload: "gzip", SeedIdx: 3,
			Warmup: 500, Measure: 2000, Attempt: 2,
		},
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("frame did not round-trip:\n in=%+v\nout=%+v", in, out)
	}
	if err := readFrame(&buf, &out); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	var f frame
	if err := readFrame(&buf, &f); err == nil || err == io.EOF {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

// runInProcess is the ground truth every subprocess result must match bit
// for bit.
func runInProcess(t *testing.T, cells []sim.Cell) []*stats.Run {
	t.Helper()
	local := sim.LocalRunner{Warmup: testWarmup, Measure: testMeasure}
	out := make([]*stats.Run, len(cells))
	for i, c := range cells {
		run, err := local.RunCell(context.Background(), c, 1)
		if err != nil {
			t.Fatalf("in-process %s: %v", c, err)
		}
		out[i] = run
	}
	return out
}

func TestSubprocessBitIdentical(t *testing.T) {
	cells := testCells(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "hmmer"}, 2)
	want := runInProcess(t, cells)

	p := newTestPool(t, 2)
	for i, c := range cells {
		got, err := p.RunCell(context.Background(), c, 1)
		if err != nil {
			t.Fatalf("worker %s: %v", c, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("cell %s differs between worker and in-process:\n got=%+v\nwant=%+v", c, got, want[i])
		}
	}
	st := p.Stats()
	if st.Executed != int64(len(cells)) {
		t.Fatalf("executed %d cells, want %d", st.Executed, len(cells))
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Fatalf("healthy run recorded crashes: %+v", st)
	}
}

// TestChaosCrashReassignment arms deterministic crash injection (every
// cell's first attempt hard-exits its worker) and drives the grid through
// the sim pool's retry machinery: every cell must converge on attempt 2
// with results bit-identical to a crash-free in-process run.
func TestChaosCrashReassignment(t *testing.T) {
	cells := testCells(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "hmmer"}, 1)
	want := runInProcess(t, cells)

	t.Setenv(EnvChaos, "seed=7,exit=1,maxfaults=1") // workers inherit: attempt 1 always crashes
	p, err := NewPool(Options{
		Workers:       2,
		Warmup:        testWarmup,
		Measure:       testMeasure,
		BeatEvery:     20 * time.Millisecond,
		SpawnBackoff:  5 * time.Millisecond,
		RestartBudget: 10,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pool := &sim.Pool{Jobs: 2, MaxAttempts: 3, RetryBackoff: time.Millisecond}
	res := pool.RunWith(context.Background(), cells, p)
	if len(res) != len(cells) {
		t.Fatalf("%d results for %d cells", len(res), len(cells))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %s did not converge: %v", r.Cell, r.Err)
		}
		if r.Attempts < 2 {
			t.Fatalf("cell %s took %d attempts; injected crash should have cost one", r.Cell, r.Attempts)
		}
		if !reflect.DeepEqual(r.Run, want[i]) {
			t.Fatalf("cell %s differs after crash reassignment:\n got=%+v\nwant=%+v", r.Cell, r.Run, want[i])
		}
	}
	st := p.Stats()
	if st.Crashes < int64(len(cells)) {
		t.Fatalf("expected >= %d crashes, got %+v", len(cells), st)
	}
	if st.Reassigned < int64(len(cells)) {
		t.Fatalf("expected >= %d reassigned attempts, got %+v", len(cells), st)
	}
	if st.Restarts == 0 {
		t.Fatalf("crashed workers were never respawned: %+v", st)
	}
}

// TestKill9MidSweep SIGKILLs a live worker while a sweep runs — the
// supervisor must respawn it and the sweep must complete bit-identical.
func TestKill9MidSweep(t *testing.T) {
	cells := testCells(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "hmmer", "mcf"}, 2)
	want := runInProcess(t, cells)

	p := newTestPool(t, 2)

	// Kill a worker as soon as one exists and has likely started a cell.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.After(10 * time.Second)
		for {
			if pids := p.WorkerPIDs(); len(pids) > 0 {
				time.Sleep(10 * time.Millisecond) // let it pick up a cell
				syscall.Kill(pids[0], syscall.SIGKILL)
				return
			}
			select {
			case <-deadline:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	pool := &sim.Pool{Jobs: 2, MaxAttempts: 3, RetryBackoff: time.Millisecond}
	res := pool.RunWith(context.Background(), cells, p)
	<-killed
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %s failed despite retry budget: %v", r.Cell, r.Err)
		}
		if !reflect.DeepEqual(r.Run, want[i]) {
			t.Fatalf("cell %s differs after kill -9:\n got=%+v\nwant=%+v", r.Cell, r.Run, want[i])
		}
	}
	// The victim died either mid-cell (reassigned) or idle; both must end
	// in a respawn. The respawn is asynchronous (manage loop + backoff), so
	// poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Restarts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("killed worker was not respawned: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartBudgetFallback points the pool at a binary that can never
// speak the protocol: every slot must burn its restart budget, retire, and
// cells must gracefully degrade to the Fallback runner.
func TestRestartBudgetFallback(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skip("/bin/false unavailable")
	}
	cells := testCells(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	want := runInProcess(t, cells)

	p, err := NewPool(Options{
		Workers:         2,
		BinPath:         "/bin/false",
		Warmup:          testWarmup,
		Measure:         testMeasure,
		RestartBudget:   2,
		SpawnBackoff:    time.Millisecond,
		MaxSpawnBackoff: 2 * time.Millisecond,
		HelloTimeout:    2 * time.Second,
		Fallback:        sim.LocalRunner{Warmup: testWarmup, Measure: testMeasure},
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, err := p.RunCell(context.Background(), cells[0], 1)
	if err != nil {
		t.Fatalf("fallback cell failed: %v", err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("fallback result differs:\n got=%+v\nwant=%+v", got, want[0])
	}
	if !p.Degraded() {
		t.Fatal("pool did not report degradation")
	}
	st := p.Stats()
	if st.Retired != 2 || st.FallbackCells == 0 {
		t.Fatalf("expected 2 retired slots and fallback cells, got %+v", st)
	}
}

// TestRestartBudgetNoFallback: with no Fallback, a fully retired pool
// fails cells with ErrPoolDegraded instead of hanging.
func TestRestartBudgetNoFallback(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skip("/bin/false unavailable")
	}
	p, err := NewPool(Options{
		Workers:         1,
		BinPath:         "/bin/false",
		RestartBudget:   2,
		SpawnBackoff:    time.Millisecond,
		MaxSpawnBackoff: 2 * time.Millisecond,
		HelloTimeout:    2 * time.Second,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cells := testCells(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	if _, err := p.RunCell(context.Background(), cells[0], 1); !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("err = %v, want ErrPoolDegraded", err)
	}
}

// TestDefaultLogfReachesLog: a pool built without Logf reports supervisor
// events through the standard logger, so a sweep's spawn failures reach
// its process's stderr instead of vanishing.
func TestDefaultLogfReachesLog(t *testing.T) {
	if _, err := os.Stat("/bin/false"); err != nil {
		t.Skip("/bin/false unavailable")
	}
	var buf bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&buf)
	p, err := NewPool(Options{Workers: 1, BinPath: "/bin/false", RestartBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cells := testCells(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	// The slot logs before it retires, and RunCell returns only after
	// the retirement, so the log line is complete once RunCell returns.
	if _, err := p.RunCell(context.Background(), cells[0], 1); !errors.Is(err, ErrPoolDegraded) {
		t.Fatalf("err = %v, want ErrPoolDegraded", err)
	}
	if !strings.Contains(buf.String(), "start failed") {
		t.Fatalf("default Logf wrote %q, want a start-failed line", buf.String())
	}
}

// TestCancelPropagation: canceling the cell context must interrupt the
// running worker promptly and return the cancellation cause.
func TestCancelPropagation(t *testing.T) {
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	big := sim.Cell{Config: cfg, Workload: "gzip"}
	p, err := NewPool(Options{
		Workers:      1,
		Warmup:       0,
		Measure:      1 << 40, // would run effectively forever
		BeatEvery:    20 * time.Millisecond,
		SpawnBackoff: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	cause := errors.New("test: deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel(cause)
	}()
	start := time.Now()
	_, err = p.RunCell(ctx, big, 1)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to propagate", elapsed)
	}
}

// TestWorkerCrashIsTransient: the error a worker death produces must
// classify as transient so the sim pool's retry machinery reassigns it.
func TestWorkerCrashIsTransient(t *testing.T) {
	err := &transientError{fmt.Errorf("%w: pid 1 gone", ErrWorkerCrashed)}
	if !sim.Transient(err) {
		t.Fatal("worker crash error did not classify as transient")
	}
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatal("wrapped crash error lost its sentinel")
	}
}

func TestChaosFromEnv(t *testing.T) {
	for _, tc := range []struct {
		v    string
		want bool
	}{
		{"", false},
		{"seed=1,exit=0.5", true},
		{"seed=1,exit=0.5,maxfaults=3", true},
		{"exit=0", false},         // enabled needs a positive rate
		{"seed=1,exit=2", false},  // out of range
		{"bogus", false},          // malformed
		{"seed=1,boom=1", false},  // unknown key
		{"seed=x,exit=.1", false}, // unparsable seed
	} {
		t.Setenv(EnvChaos, tc.v)
		if got := chaosFromEnv() != nil; got != tc.want {
			t.Errorf("chaosFromEnv(%q) armed=%v, want %v", tc.v, got, tc.want)
		}
	}
}
