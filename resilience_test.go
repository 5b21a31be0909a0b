package specsched_test

// Public-façade resilience tests: the chaos/retry/watchdog knobs and the
// failure report, driven purely through the specsched API (the same surface
// cmd/experiments uses).

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"specsched"
	"specsched/results"
)

// TestSweepChaosConvergesPublic: a public sweep with injected panics and
// transient errors plus a retry budget finishes every cell, bit-identical
// to a fault-free sweep, and the failure report accounts for the recovery.
func TestSweepChaosConvergesPublic(t *testing.T) {
	spec := gridSpec()
	spec.Jobs = 4
	clean, err := mustSweep(t, spec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	spec.Chaos = &specsched.Chaos{Seed: 7, PanicRate: 0.4, TransientRate: 0.4}
	spec.Retries = 4
	spec.RetryBackoff = specsched.Duration(time.Millisecond)
	sweep := mustSweep(t, spec)
	cells, err := sweep.Run(ctx)
	if err != nil {
		t.Fatalf("chaos sweep did not converge: %v", err)
	}
	retried := 0
	for i, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %s failed: %v", c.CellRef, c.Err)
		}
		got, want := c.Run, clean[i].Run
		got.Elapsed, want.Elapsed = 0, 0
		if got != want {
			t.Fatalf("cell %s: chaos run diverged from fault-free run", c.CellRef)
		}
		if c.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("chaos plan injected nothing; rates or seed wiring broken")
	}
	fr := sweep.FailureReport()
	if len(fr.Failed) != 0 {
		t.Fatalf("FailureReport lists %d failed cells after a converged sweep: %+v", len(fr.Failed), fr.Failed)
	}
	if fr.Retries == 0 || fr.Recovered == 0 {
		t.Fatalf("FailureReport Retries=%d Recovered=%d, want both > 0", fr.Retries, fr.Recovered)
	}
}

// TestSweepPermanentFailuresReported: permanent (bad-trace-class) failures
// are not retried, surface per cell as ErrBadTrace, and land in the
// failure report marked non-transient.
func TestSweepPermanentFailuresReported(t *testing.T) {
	spec := gridSpec()
	spec.Chaos = &specsched.Chaos{CorruptTraceRate: 1}
	spec.Retries = 3
	spec.RetryBackoff = specsched.Duration(time.Millisecond)
	sweep := mustSweep(t, spec)
	cells, err := sweep.Run(ctx)
	if err == nil {
		t.Fatal("sweep with every cell corrupt reported success")
	}
	for _, c := range cells {
		if !errors.Is(c.Err, specsched.ErrBadTrace) {
			t.Fatalf("cell %s: err = %v, want ErrBadTrace", c.CellRef, c.Err)
		}
		if c.Attempts != 1 {
			t.Fatalf("cell %s: %d attempts on a permanent failure", c.CellRef, c.Attempts)
		}
	}
	fr := sweep.FailureReport()
	if len(fr.Failed) != len(cells) {
		t.Fatalf("FailureReport lists %d of %d failed cells", len(fr.Failed), len(cells))
	}
	for _, f := range fr.Failed {
		if f.Transient {
			t.Fatalf("cell %s reported transient; corrupt traces are permanent", f.Cell)
		}
		if !errors.Is(f.Err, specsched.ErrBadTrace) {
			t.Fatalf("cell %s: report err = %v, want ErrBadTrace", f.Cell, f.Err)
		}
	}
	if fr.Retries != 0 {
		t.Fatalf("FailureReport Retries=%d for permanent-only failures", fr.Retries)
	}
}

// TestSweepTornCheckpointSalvageResume: a checkpointed sweep whose every
// flush is injected torn still leaves a resumable file — the resumed sweep
// salvages it, reports the salvage, and ends bit-identical to a clean run.
func TestSweepTornCheckpointSalvageResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	clean, err := mustSweep(t, gridSpec()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	spec := gridSpec()
	spec.Checkpoint = path
	torn := spec
	torn.Chaos = &specsched.Chaos{TornWriteRate: 1}
	if _, err := mustSweep(t, torn).Run(ctx); err != nil {
		t.Fatalf("torn-flush sweep failed: %v", err)
	}

	resumed := mustSweep(t, spec)
	cells, err := resumed.Run(ctx)
	if err != nil {
		t.Fatalf("resume from torn checkpoint failed: %v", err)
	}
	cached := 0
	byRef := map[specsched.CellRef]results.Run{}
	for _, c := range clean {
		byRef[c.CellRef] = c.Run
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %s failed on resume: %v", c.CellRef, c.Err)
		}
		got, want := c.Run, byRef[c.CellRef]
		got.Elapsed, want.Elapsed = 0, 0
		if got != want {
			t.Fatalf("cell %s: resumed run diverged from clean run", c.CellRef)
		}
		if c.Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("salvage recovered no cells from the torn checkpoint")
	}
	if fr := resumed.FailureReport(); fr.CheckpointSalvage == "" {
		t.Fatal("FailureReport does not mention the checkpoint salvage")
	}
	t.Logf("salvaged %d/%d cells", cached, len(cells))
}

// TestSweepStallTimeoutPublic: the public stall watchdog knob reaches the
// pool — a sweep over real cells with a generous stall window succeeds
// (real cells heartbeat), proving the wiring doesn't kill healthy cells.
func TestSweepStallTimeoutPublic(t *testing.T) {
	spec := gridSpec()
	spec.StallTimeout = specsched.Duration(30 * time.Second)
	spec.CellTimeout = specsched.Duration(5 * time.Minute)
	cells, err := mustSweep(t, spec).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %s: %v", c.CellRef, c.Err)
		}
	}
}
