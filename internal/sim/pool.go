package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"specsched/internal/faultinject"
	"specsched/internal/stats"
)

// Cell-failure sentinels. Every failure the pool itself synthesizes wraps
// exactly one of these, so retry classification and tests match on
// errors.Is instead of message text.
var (
	// ErrCellPanic marks a cell whose goroutine panicked; the panic value
	// and stack ride along in the message. Panics are transient for retry
	// purposes: the paper-grade configs never panic, so a panic is either
	// an injected fault or a once-in-a-run environmental failure.
	ErrCellPanic = errors.New("sim: cell panicked")
	// ErrCellTimeout marks a cell that exceeded Pool.CellTimeout.
	ErrCellTimeout = errors.New("sim: cell timeout")
	// ErrCellStalled marks a cell the stall watchdog killed: its
	// simulated-cycle heartbeat stopped advancing for Pool.StallTimeout
	// even though the wall-clock cell timeout had not yet expired.
	ErrCellStalled = errors.New("sim: cell stalled (no simulated-cycle progress)")
	// ErrAbandonBudget marks a transient timeout/stall that was NOT
	// retried because the pool's abandoned-goroutine budget is spent:
	// retrying would leak yet another goroutine.
	ErrAbandonBudget = errors.New("sim: abandoned-goroutine budget exhausted, not retrying")
)

// Transient reports whether a cell failure is worth retrying: pool-level
// panics, timeouts, and stalls are; anything matching ErrBadTrace is not
// (a corrupt trace stays corrupt); and any error in the chain may opt in
// by implementing `Transient() bool` (the hook remote cell runners and
// fault injection use). Everything else — invalid configurations, unknown
// workloads — is permanent.
func Transient(err error) bool {
	if err == nil || errors.Is(err, ErrBadTrace) {
		return false
	}
	if errors.Is(err, ErrCellPanic) || errors.Is(err, ErrCellTimeout) || errors.Is(err, ErrCellStalled) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// Pool shards a cell grid across worker goroutines. The cells to run are
// known before any worker starts, so the workers share one cursor over
// them: each idle worker claims the next unclaimed cell with one atomic
// add. No worker idles while cells remain, so load imbalance (mcf cells
// run ~5x longer than gzip cells) never strands work behind a slow
// worker, and a worker that finds the cursor past the end knows every
// cell has been claimed.
//
// Failure policy: a cell attempt that fails transiently (panic, timeout,
// stall, or an error opting in via Transient()) is retried up to
// MaxAttempts times with capped exponential backoff; permanent failures
// (ErrBadTrace, invalid configurations) fail immediately. Timeouts and
// stalls abandon their goroutine (the runtime cannot preempt-kill it);
// AbandonBudget bounds how many such leaks the pool tolerates before it
// stops retrying abandoning failures, so a systematically hanging sweep
// degrades to per-cell failures instead of leaking without limit.
type Pool struct {
	// Jobs is the worker count (0 = GOMAXPROCS).
	Jobs int
	// CellTimeout bounds one cell attempt's wall-clock time; 0 disables.
	// A timed out attempt fails with ErrCellTimeout and its goroutine is
	// abandoned (reclaimed against the budget if it eventually returns).
	CellTimeout time.Duration
	// StallTimeout, when > 0, arms the stall watchdog: a cell attempt
	// whose simulated-cycle heartbeat (see WithHeartbeat; Simulate and
	// SimulateCell emit them off the core's cancellation poll) does not
	// advance for this long fails with ErrCellStalled without waiting for
	// the full CellTimeout. It distinguishes "slow but progressing" (mcf
	// keeps heartbeating) from "hung" (heartbeat frozen). Cell functions
	// that never heartbeat are treated as hung once the window passes.
	StallTimeout time.Duration
	// MaxAttempts is the per-cell attempt bound for transient failures
	// (0 or 1 = no retries).
	MaxAttempts int
	// RetryBackoff is the sleep before the second attempt, doubling per
	// subsequent attempt (0 = 100ms). The sleep is context-interruptible.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the doubling (0 = 32 × RetryBackoff).
	MaxRetryBackoff time.Duration
	// AbandonBudget bounds concurrently leaked goroutines from timeouts
	// and stalls before abandoning failures stop being retried (0 = twice
	// the worker count; negative = unlimited).
	AbandonBudget int
	// Chaos, when non-nil, injects the plan's deterministic faults into
	// cell attempts (panic, hang, transient error, corrupt trace) — the
	// reproducible test harness for every failure path above. Hang faults
	// block until the attempt's context is canceled, so they require
	// CellTimeout or StallTimeout to be set.
	Chaos *faultinject.Plan
	// Checkpoint, when non-nil, satisfies already-completed cells without
	// simulating and records fresh completions for future resumes.
	Checkpoint *Checkpoint
	// Dedup, when non-nil alongside DedupKey, deduplicates cells across
	// every pool sharing the cache: a cell whose key another pool is
	// already simulating waits for that result instead of recomputing it,
	// and previously computed cells are served from the cache's LRU. The
	// sharing is sound because equal keys imply bit-identical results
	// (see DedupKey). Deduped results still count as this pool's
	// completions (they stream, report progress, and are checkpointed)
	// but carry Result.Deduped and skip the retry machinery — the
	// executing pool already applied its own.
	Dedup *DedupCache
	// DedupKey maps a cell to its cross-pool identity; a "" return opts
	// that cell out of deduplication.
	DedupKey func(Cell) string
	// OnResult, when non-nil, receives every finished cell's full Result
	// (checkpoint-satisfied cells included) in completion order, from a
	// single collector goroutine (no synchronization needed inside).
	OnResult func(Result)

	// abandoned counts currently-leaked goroutines (incremented when a
	// timeout/stall fires, decremented if the attempt later returns);
	// abandonTotal is the monotone count of abandon events.
	abandoned    atomic.Int64
	abandonTotal atomic.Int64
}

// Abandoned returns how many goroutines this pool has abandoned to
// timeouts and stalls in total (monotone; reclaims don't subtract).
func (p *Pool) Abandoned() int { return int(p.abandonTotal.Load()) }

// RunWith executes every cell through runner and returns the results in
// cell order — results[i] always corresponds to cells[i], regardless of
// worker count or completion order, which is what makes downstream merging
// deterministic. A failing cell (error, panic, timeout) yields a Result
// with Err set; the sweep always runs to completion. The runner's RunCell
// is invoked from the pool's isolated attempt goroutines with the 1-based
// attempt number (see CellRunner); the pool does not Close the runner.
//
// Canceling ctx stops the sweep promptly and cooperatively: workers stop
// claiming cells, the in-flight cells abort mid-simulation (the runner
// receives ctx; SimulateCell's core polls it), and every cell that did not
// complete gets the cancellation cause as its Err. Cells that completed
// before the cancel keep their results — with a Checkpoint configured they
// are already recorded, so a canceled sweep is resumable.
func (p *Pool) RunWith(ctx context.Context, cells []Cell, runner CellRunner) []Result {
	results := make([]Result, len(cells))
	done := make([]bool, len(cells))
	deliver := func(i int) {
		done[i] = true
		if p.OnResult != nil {
			p.OnResult(results[i])
		}
	}

	// Satisfy resumable cells from the checkpoint up front.
	var todo []int
	for i, c := range cells {
		if p.Checkpoint != nil {
			if run, ok := p.Checkpoint.Lookup(c); ok {
				results[i] = Result{Cell: c, Run: run, Cached: true}
				deliver(i)
				continue
			}
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return results
	}

	jobs := p.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(todo) {
		jobs = len(todo)
	}

	// One shared cursor over todo: each idle worker claims the next cell.
	var next atomic.Int64
	finished := make(chan int, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				idx := todo[k]
				results[idx] = p.runCellDeduped(ctx, cells[idx], runner)
				finished <- idx
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()

	// Single collector: checkpoint records and the OnResult hook happen
	// here, in completion order; result slots were already written by the
	// workers at their deterministic indices.
	for idx := range finished {
		if r := &results[idx]; r.Err == nil && p.Checkpoint != nil {
			p.Checkpoint.Record(r.Cell, r.Run)
		}
		deliver(idx)
	}

	// On cancellation, cells never claimed (or claimed but aborted without
	// reaching the collector) fail with the cancellation cause so callers
	// can distinguish "canceled" from "never attempted" silently-zero
	// results. They are not passed to OnResult: the sweep did not finish
	// them.
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		for i := range results {
			if !done[i] {
				if results[i].Err == nil {
					results[i] = Result{Cell: cells[i], Err: fmt.Errorf("cell %s: %w", cells[i], cause)}
				}
			}
		}
	}
	return results
}

// runCellDeduped runs one cell through the shared dedup cache when one is
// configured (and the cell has a key), falling back to the plain retrying
// path otherwise. The retry policy runs inside the cache's single flight,
// so concurrent pools asking for the same cell share one retried
// execution; a waiter whose flight owner failed re-runs the cell itself
// (its own retry budget, its own chaos plan) instead of inheriting a
// foreign error.
func (p *Pool) runCellDeduped(ctx context.Context, cell Cell, runner CellRunner) Result {
	if p.Dedup == nil || p.DedupKey == nil {
		return p.runCellRetrying(ctx, cell, runner)
	}
	key := p.DedupKey(cell)
	if key == "" {
		return p.runCellRetrying(ctx, cell, runner)
	}
	start := time.Now()
	var owned Result
	run, src, err := p.Dedup.Do(ctx, key, func() (*stats.Run, error) {
		owned = p.runCellRetrying(ctx, cell, runner)
		return owned.Run, owned.Err
	})
	if src == DedupExecuted {
		return owned
	}
	if err != nil {
		// Canceled while waiting on another pool's flight.
		return Result{Cell: cell, Err: fmt.Errorf("cell %s: %w", cell, err), Elapsed: time.Since(start).Seconds()}
	}
	return Result{Cell: cell, Run: run, Deduped: true, Elapsed: time.Since(start).Seconds()}
}

// maxAttempts returns the effective per-cell attempt bound.
func (p *Pool) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the capped exponential sleep before attempt n+1 (n is
// the 1-based attempt that just failed).
func (p *Pool) backoff(n int) time.Duration {
	base := p.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := p.MaxRetryBackoff
	if cap <= 0 {
		cap = 32 * base
	}
	d := base << (n - 1)
	if d > cap || d <= 0 { // d<=0 guards shift overflow at absurd n
		d = cap
	}
	return d
}

// abandonBudget returns the effective leaked-goroutine bound (<0 =
// unlimited).
func (p *Pool) abandonBudget() int {
	if p.AbandonBudget != 0 {
		return p.AbandonBudget
	}
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return 2 * jobs
}

// runCellRetrying drives one cell through the retry policy: attempts run
// until one succeeds, fails permanently, exhausts MaxAttempts, trips the
// abandon budget, or the sweep context is canceled. Elapsed accumulates
// across attempts; Attempts records how many ran.
func (p *Pool) runCellRetrying(ctx context.Context, cell Cell, runner CellRunner) Result {
	var elapsed float64
	for attempt := 1; ; attempt++ {
		res := p.runCell(ctx, cell, runner, attempt)
		elapsed += res.Elapsed
		res.Elapsed, res.Attempts = elapsed, attempt
		if res.Err == nil || ctx.Err() != nil || attempt >= p.maxAttempts() || !Transient(res.Err) {
			return res
		}
		select {
		case <-ctx.Done():
			return res
		case <-time.After(p.backoff(attempt)):
		}
		// Budget check after the backoff: an abandoned attempt that honored
		// cancellation during the sleep has already reclaimed its slot.
		if abandoning(res.Err) {
			if budget := p.abandonBudget(); budget >= 0 && int(p.abandoned.Load()) >= budget {
				res.Err = fmt.Errorf("cell %s: %w (%d leaked): %w", cell, ErrAbandonBudget, p.abandoned.Load(), res.Err)
				return res
			}
		}
	}
}

// abandoning reports whether a failure leaked its attempt's goroutine.
func abandoning(err error) bool {
	return errors.Is(err, ErrCellTimeout) || errors.Is(err, ErrCellStalled)
}

// runCell executes one attempt of one cell in a child goroutine so that
// panics, timeouts, and stalls are contained to the attempt.
func (p *Pool) runCell(ctx context.Context, cell Cell, runner CellRunner, attempt int) Result {
	start := time.Now()

	// The attempt context: cancelable when a timeout or watchdog is armed
	// so a killed attempt's simulation actually aborts (the core polls it)
	// instead of burning a CPU until the process exits. The heartbeat
	// counter rides the context into Simulate/SimulateCell.
	cctx, cancel := ctx, context.CancelCauseFunc(nil)
	watched := p.CellTimeout > 0 || p.StallTimeout > 0
	var hb *atomic.Int64
	if watched {
		cctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		if p.StallTimeout > 0 {
			hb = new(atomic.Int64)
			hb.Store(-1) // no heartbeat yet
			cctx = WithHeartbeat(cctx, hb)
		}
	}

	ch := make(chan Result, 1)
	go func() {
		defer func() {
			if pv := recover(); pv != nil {
				ch <- Result{Cell: cell, Err: fmt.Errorf("cell %s: %w: %v\n%s", cell, ErrCellPanic, pv, debug.Stack())}
			}
		}()
		if p.Chaos != nil {
			switch kind := p.Chaos.Cell(cell.Key(), attempt); kind {
			case faultinject.Panic:
				panic(fmt.Sprintf("faultinject: injected panic (%s attempt %d)", cell, attempt))
			case faultinject.Hang:
				// Model a wedged cell: no heartbeats, no completion, until
				// the watchdog/timeout cancels the attempt context.
				<-cctx.Done()
				ch <- Result{Cell: cell, Err: fmt.Errorf("cell %s: injected hang released: %w", cell, context.Cause(cctx))}
				return
			case faultinject.Transient:
				ch <- Result{Cell: cell, Err: fmt.Errorf("cell %s (attempt %d): %w", cell, attempt, faultinject.ErrTransient)}
				return
			case faultinject.CorruptTrace:
				ch <- Result{Cell: cell, Err: fmt.Errorf("%w: cell %s: faultinject: trace body digest mismatch", ErrBadTrace, cell)}
				return
			}
		}
		run, err := runner.RunCell(cctx, cell, attempt)
		if err != nil {
			err = fmt.Errorf("cell %s: %w", cell, err)
		}
		ch <- Result{Cell: cell, Run: run, Err: err}
	}()

	if !watched {
		res := <-ch
		res.Elapsed = time.Since(start).Seconds()
		return res
	}

	var timeoutC <-chan time.Time
	if p.CellTimeout > 0 {
		tm := time.NewTimer(p.CellTimeout)
		defer tm.Stop()
		timeoutC = tm.C
	}
	var stallC <-chan time.Time
	if p.StallTimeout > 0 {
		ival := p.StallTimeout / 4
		if ival < time.Millisecond {
			ival = time.Millisecond
		}
		tk := time.NewTicker(ival)
		defer tk.Stop()
		stallC = tk.C
	}

	// finished drains ch without blocking: the buffer guarantees the child
	// can always deliver, so an abandoned attempt that eventually returns
	// reclaims its budget slot via the monitor below.
	finished := func() (Result, bool) {
		select {
		case res := <-ch:
			return res, true
		default:
			return Result{}, false
		}
	}
	abandon := func(cause error) {
		p.abandoned.Add(1)
		p.abandonTotal.Add(1)
		cancel(cause) // a ctx-polling simulation aborts promptly
		go func() {
			<-ch // the attempt returned after all: slot reclaimed
			p.abandoned.Add(-1)
		}()
	}

	lastBeat, lastAdvance := int64(-1), start
	var res Result
watch:
	for {
		select {
		case res = <-ch:
			break watch
		case <-ctx.Done():
			// Sweep canceled: report the cause; the child exits via cctx.
			if r, ok := finished(); ok {
				res = r
				break watch
			}
			res = Result{Cell: cell, Err: fmt.Errorf("cell %s: %w", cell, context.Cause(ctx))}
			break watch
		case <-timeoutC:
			if r, ok := finished(); ok { // lost race: attempt did finish
				res = r
				break watch
			}
			err := fmt.Errorf("cell %s: %w after %v (diverging config? goroutine abandoned)", cell, ErrCellTimeout, p.CellTimeout)
			abandon(err)
			res = Result{Cell: cell, Err: err}
			break watch
		case <-stallC:
			if beat := hb.Load(); beat != lastBeat {
				lastBeat, lastAdvance = beat, time.Now()
				continue
			}
			if time.Since(lastAdvance) < p.StallTimeout {
				continue
			}
			if r, ok := finished(); ok {
				res = r
				break watch
			}
			err := fmt.Errorf("cell %s: %w for %v at simulated cycle %d (goroutine abandoned)", cell, ErrCellStalled, p.StallTimeout, lastBeat)
			abandon(err)
			res = Result{Cell: cell, Err: err}
			break watch
		}
	}
	res.Elapsed = time.Since(start).Seconds()
	return res
}
