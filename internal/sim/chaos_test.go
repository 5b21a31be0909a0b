package sim

// Chaos suite: proves the resilience machinery end to end with
// deterministic fault injection. Every test here runs under -race in the
// merge-blocking chaos CI job; the nightly soak reruns the suite with
// randomized plan seeds (SPECSCHED_CHAOS_SEED).

import (
	"context"
	"errors"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"specsched/internal/faultinject"
	"specsched/internal/stats"
)

// chaosSeed returns the fault-plan seed for this run: fixed by default so
// failures reproduce, overridable via SPECSCHED_CHAOS_SEED for the nightly
// randomized soak.
func chaosSeed(t *testing.T) uint64 {
	if s := os.Getenv("SPECSCHED_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPECSCHED_CHAOS_SEED %q: %v", s, err)
		}
		t.Logf("chaos seed %d (from SPECSCHED_CHAOS_SEED)", v)
		return v
	}
	return 0xc4a05
}

// TestChaosSweepConvergesBitIdentical is the core acceptance property: a
// sweep with injected panics, hangs, and transient errors — and enough
// retries to outlast MaxFaultsPerCell — completes with every cell
// succeeding and results bit-identical to a fault-free sweep.
func TestChaosSweepConvergesBitIdentical(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim", "applu"}, 3)
	clean := (&Pool{Jobs: 4}).RunWith(context.Background(), cells, RunnerFunc(fakeCell))

	plan := &faultinject.Plan{
		Seed:          chaosSeed(t),
		PanicRate:     0.3,
		HangRate:      0.15,
		TransientRate: 0.3,
		// MaxFaultsPerCell 2 (default) + 1 clean attempt <= MaxAttempts 4.
	}
	chaosPool := func() *Pool {
		return &Pool{
			Jobs:          4,
			Chaos:         plan,
			MaxAttempts:   4,
			RetryBackoff:  time.Millisecond,
			StallTimeout:  100 * time.Millisecond, // releases injected hangs
			CellTimeout:   10 * time.Second,
			AbandonBudget: -1, // hangs abandon goroutines; don't let the budget block convergence
		}
	}
	faulty := chaosPool().RunWith(context.Background(), cells, RunnerFunc(fakeCell))

	retried := 0
	for i, r := range faulty {
		if r.Err != nil {
			t.Fatalf("cell %s failed despite retries: %v (attempts=%d)", r.Cell, r.Err, r.Attempts)
		}
		if *r.Run != *clean[i].Run {
			t.Fatalf("cell %s: chaos run diverged from fault-free run", r.Cell)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatalf("plan injected no faults across %d cells — rates or seed wiring broken", len(cells))
	}
	t.Logf("%d/%d cells recovered via retry", retried, len(cells))

	// Determinism: the identical plan injects the identical faults, so a
	// rerun spends the identical per-cell attempts.
	again := chaosPool().RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	for i := range faulty {
		if again[i].Attempts != faulty[i].Attempts {
			t.Fatalf("cell %s: attempts %d then %d under the same plan", cells[i], faulty[i].Attempts, again[i].Attempts)
		}
	}
}

// TestChaosRealSimulationConverges runs the convergence property over the
// real simulator (Simulate, heartbeats wired through core), not fakes.
func TestChaosRealSimulationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf"}, 1)
	run := func(ctx context.Context, c Cell) (*stats.Run, error) {
		return Simulate(ctx, c, 500, 2000)
	}
	clean := (&Pool{Jobs: 2}).RunWith(context.Background(), cells, RunnerFunc(run))
	faulty := (&Pool{
		Jobs:         2,
		Chaos:        &faultinject.Plan{Seed: chaosSeed(t), PanicRate: 0.5, TransientRate: 0.4},
		MaxAttempts:  4,
		RetryBackoff: time.Millisecond,
		StallTimeout: 10 * time.Second, // arm the watchdog so real cells heartbeat through it
	}).RunWith(context.Background(), cells, RunnerFunc(run))
	for i, r := range faulty {
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", r.Cell, r.Err)
		}
		if clean[i].Err != nil {
			t.Fatalf("clean cell %s failed: %v", clean[i].Cell, clean[i].Err)
		}
		if *r.Run != *clean[i].Run {
			t.Fatalf("cell %s: chaos run diverged from fault-free run", r.Cell)
		}
	}
}

// TestStallWatchdogSparesProgressingCells: the watchdog distinguishes
// "slow but heartbeating" from "heartbeat frozen" — the former finishes,
// the latter dies early with ErrCellStalled long before CellTimeout.
func TestStallWatchdogSparesProgressingCells(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip", "mcf"}, 1)
	const stall = 150 * time.Millisecond
	run := func(ctx context.Context, c Cell) (*stats.Run, error) {
		hb := HeartbeatFrom(ctx)
		if hb == nil {
			t.Error("watchdog armed but no heartbeat in cell context")
			return fakeRun(c)
		}
		if c.Workload == "gzip" {
			// Slow but progressing: runs 2× the stall window, heartbeats
			// every stall/6 — the watchdog must let it finish.
			for i := 0; i < 12; i++ {
				hb.Store(int64(i))
				time.Sleep(stall / 6)
			}
			return fakeRun(c)
		}
		// Hung: one heartbeat, then frozen until canceled.
		hb.Store(1)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	start := time.Now()
	res := (&Pool{Jobs: 2, StallTimeout: stall, CellTimeout: time.Minute}).RunWith(context.Background(), cells, RunnerFunc(run))
	for _, r := range res {
		switch r.Cell.Workload {
		case "gzip":
			if r.Err != nil {
				t.Fatalf("progressing cell killed: %v", r.Err)
			}
		case "mcf":
			if !errors.Is(r.Err, ErrCellStalled) {
				t.Fatalf("hung cell error = %v, want ErrCellStalled", r.Err)
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("watchdog took %v; should fire at ~StallTimeout, far before CellTimeout", elapsed)
	}
}

// TestAbandonBudgetStopsRetries: a cell that hard-hangs (ignores its
// context) leaks a goroutine per attempt; once the budget is spent the
// pool stops retrying instead of leaking without bound.
func TestAbandonBudgetStopsRetries(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	block := make(chan struct{}) // never closed: attempts ignore cancellation
	res := (&Pool{
		Jobs:          1,
		CellTimeout:   30 * time.Millisecond,
		MaxAttempts:   10,
		RetryBackoff:  time.Millisecond,
		AbandonBudget: 2,
	}).RunWith(context.Background(), cells, RunnerFunc(func(ctx context.Context, c Cell) (*stats.Run, error) {
		<-block
		return nil, nil
	}))
	r := res[0]
	if !errors.Is(r.Err, ErrAbandonBudget) || !errors.Is(r.Err, ErrCellTimeout) {
		t.Fatalf("error = %v, want ErrAbandonBudget wrapping ErrCellTimeout", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (budget of 2 leaked goroutines)", r.Attempts)
	}
}

// TestAbandonedGoroutineReclaimed: an abandoned attempt that eventually
// honors cancellation returns its budget slot, so later retries are not
// starved by transient slowness.
func TestAbandonedGoroutineReclaimed(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	var attempts atomic.Int64
	p := &Pool{
		Jobs:          1,
		CellTimeout:   30 * time.Millisecond,
		MaxAttempts:   3,
		RetryBackoff:  50 * time.Millisecond, // long enough for the canceled attempt to drain
		AbandonBudget: 1,
	}
	res := p.RunWith(context.Background(), cells, RunnerFunc(func(ctx context.Context, c Cell) (*stats.Run, error) {
		if attempts.Add(1) == 1 {
			<-ctx.Done() // times out, then returns: slot reclaimed during backoff
			return nil, context.Cause(ctx)
		}
		return fakeRun(c)
	}))
	if res[0].Err != nil {
		t.Fatalf("cell failed: %v (attempts=%d); reclaim should have freed the budget", res[0].Err, res[0].Attempts)
	}
	if res[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res[0].Attempts)
	}
	if p.Abandoned() != 1 {
		t.Fatalf("Abandoned() = %d, want 1 (monotone count)", p.Abandoned())
	}
}

// TestChaosCorruptTracePermanent: injected trace corruption classifies as
// permanent (ErrBadTrace) and is never retried, however many attempts the
// policy allows.
func TestChaosCorruptTracePermanent(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	res := (&Pool{
		Jobs:         1,
		Chaos:        &faultinject.Plan{Seed: chaosSeed(t), CorruptTraceRate: 1},
		MaxAttempts:  5,
		RetryBackoff: time.Millisecond,
	}).RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	r := res[0]
	if !errors.Is(r.Err, ErrBadTrace) {
		t.Fatalf("error = %v, want ErrBadTrace", r.Err)
	}
	if r.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1: permanent failures must not retry", r.Attempts)
	}
	if Transient(r.Err) {
		t.Fatalf("Transient(%v) = true, want false", r.Err)
	}
}

// TestTransientClassification pins the retry taxonomy at the pool level.
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("some simulation error"), false},
		{ErrBadTrace, false},
		{faultinject.ErrTransient, true},
		{ErrCellPanic, true},
		{ErrCellTimeout, true},
		{ErrCellStalled, true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryBackoffSchedule pins the capped exponential backoff.
func TestRetryBackoffSchedule(t *testing.T) {
	p := &Pool{RetryBackoff: 10 * time.Millisecond, MaxRetryBackoff: 25 * time.Millisecond}
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 25 * time.Millisecond},  // capped
		{63, 25 * time.Millisecond}, // shift overflow guarded
	} {
		if got := p.backoff(c.attempt); got != c.want {
			t.Errorf("backoff(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	d := &Pool{}
	if got := d.backoff(1); got != 100*time.Millisecond {
		t.Errorf("default backoff(1) = %v, want 100ms", got)
	}
	if got := d.backoff(20); got != 3200*time.Millisecond {
		t.Errorf("default backoff(20) = %v, want the 32× cap (3.2s)", got)
	}
}

// TestPoolRetriesReportAttempts: every Result carries the attempts its
// cell took, both in the returned slice and in the OnResult stream.
func TestPoolRetriesReportAttempts(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip", "mcf"}, 2)
	var streamed []Result
	p := &Pool{
		Jobs:         2,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		OnResult:     func(r Result) { streamed = append(streamed, r) },
	}
	// Every cell fails its first attempt transiently, succeeds after.
	perCell := make(map[Cell]*atomic.Int64)
	for _, c := range cells {
		perCell[c] = new(atomic.Int64)
	}
	res := p.RunWith(context.Background(), cells, RunnerFunc(func(ctx context.Context, c Cell) (*stats.Run, error) {
		if perCell[c].Add(1) == 1 {
			return nil, faultinject.ErrTransient
		}
		return fakeRun(c)
	}))
	for _, r := range res {
		if r.Err != nil || r.Attempts != 2 {
			t.Fatalf("cell %s: err=%v attempts=%d, want success in 2", r.Cell, r.Err, r.Attempts)
		}
	}
	if len(streamed) != len(cells) {
		t.Fatalf("OnResult saw %d results for %d cells", len(streamed), len(cells))
	}
	for _, r := range streamed {
		if r.Attempts != 2 {
			t.Fatalf("streamed cell %s: attempts=%d, want 2", r.Cell, r.Attempts)
		}
	}
}
