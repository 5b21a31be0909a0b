package specsched_test

import (
	"os"
	"testing"
	"time"

	"specsched"
	"specsched/internal/worker"
	"specsched/results"
)

// TestMain installs the worker hook so worker-sweep tests can re-exec this
// test binary as their cell workers. Without the EnvWorker marker it is a
// no-op and the tests run normally.
func TestMain(m *testing.M) {
	specsched.MaybeWorker()
	os.Exit(m.Run())
}

// runGrid flattens a sweep into CellRef→Run with Elapsed (wall clock, the
// one legitimately nondeterministic field) zeroed for bit comparison.
func runGrid(t *testing.T, spec specsched.SweepSpec) map[specsched.CellRef]results.Run {
	t.Helper()
	grid, err := mustSweep(t, spec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[specsched.CellRef]results.Run, len(grid))
	for _, cell := range grid {
		cell.Run.Elapsed = 0
		out[cell.CellRef] = cell.Run
	}
	return out
}

// TestSweepWorkersBitIdentical is the facade-level acceptance test for
// process isolation: the same grid swept with subprocess workers must be
// bit-identical to the in-process sweep — no counter may depend on where a
// cell ran.
func TestSweepWorkersBitIdentical(t *testing.T) {
	inProc, workers := gridSpec(), gridSpec()
	inProc.Jobs = 2
	workers.Workers = 2
	want := runGrid(t, inProc)
	got := runGrid(t, workers)
	if len(got) != len(want) {
		t.Fatalf("worker sweep produced %d cells, in-process %d", len(got), len(want))
	}
	for ref, w := range want {
		g, ok := got[ref]
		if !ok {
			t.Fatalf("cell %s missing from the worker sweep", ref)
		}
		if g != w {
			t.Fatalf("cell %s differs between worker and in-process sweeps:\n worker     %+v\n in-process %+v", ref, g, w)
		}
	}
}

// TestSweepWorkersCrashRecovery injects a deterministic worker crash into
// every cell's first attempt (the chaos env is inherited by the re-exec'd
// workers) and requires the sweep to converge — via supervisor respawns and
// retry reassignment — on results bit-identical to a crash-free run, with
// the recovery visible in the FailureReport.
func TestSweepWorkersCrashRecovery(t *testing.T) {
	inProc := gridSpec()
	inProc.Jobs = 2
	want := runGrid(t, inProc)

	// No explicit Retries: a sweep with workers must default to a retry
	// budget that can absorb the reassignment.
	t.Setenv(worker.EnvChaos, "seed=11,exit=1,maxfaults=1")
	spec := gridSpec()
	spec.Workers = 2
	spec.RetryBackoff = specsched.Duration(time.Millisecond)
	sweep := mustSweep(t, spec)
	grid, err := sweep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(want) {
		t.Fatalf("crash-recovery sweep produced %d cells, want %d", len(grid), len(want))
	}
	for _, cell := range grid {
		cell.Run.Elapsed = 0
		if w := want[cell.CellRef]; cell.Run != w {
			t.Fatalf("cell %s differs after crash recovery:\n got  %+v\n want %+v", cell.CellRef, cell.Run, w)
		}
	}
	fr := sweep.FailureReport()
	if fr.WorkerRestarts == 0 {
		t.Errorf("FailureReport.WorkerRestarts = 0; injected crashes must force respawns (%+v)", fr)
	}
	if fr.WorkerReassigned < len(want) {
		t.Errorf("FailureReport.WorkerReassigned = %d, want >= %d (every cell's first attempt crashed its worker)",
			fr.WorkerReassigned, len(want))
	}
	if fr.Recovered < len(want) {
		t.Errorf("FailureReport.Recovered = %d, want >= %d", fr.Recovered, len(want))
	}
}

// TestSweepSpecWorkers: the workers knob must round-trip through the
// declarative spec like every other axis, and Spec states the pool
// concurrency and retry budget a worker sweep defaults to.
func TestSweepSpecWorkers(t *testing.T) {
	warmup, measure := int64(1000), int64(4000)
	spec := specsched.SweepSpec{
		Configs:   []string{"Baseline_0"},
		Workloads: []string{"gzip"},
		Warmup:    &warmup,
		Measure:   &measure,
		Workers:   3,
	}
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Spec(); got.Workers != 3 || got.Jobs != 3 || got.Retries != 3 {
		t.Fatalf("Spec() Workers/Jobs/Retries = %d/%d/%d, want 3/3/3", got.Workers, got.Jobs, got.Retries)
	}
	bad := spec
	bad.Workers = -1
	if _, err := specsched.NewSweepFromSpec(bad); err == nil {
		t.Fatal("negative workers validated")
	}
}
