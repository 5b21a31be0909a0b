package specsched

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"time"

	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/experiments"
	"specsched/internal/faultinject"
	"specsched/internal/sim"
	"specsched/internal/worker"
	"specsched/results"
)

// mapCellErr lifts per-cell simulation errors into the public taxonomy:
// trace-caused failures match ErrBadTrace (exactly as the Simulator path
// reports them), cancellation matches ErrCanceled, everything else passes
// through.
func mapCellErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, sim.ErrBadTrace) || errors.Is(err, core.ErrStreamEnded) {
		return wrapErr(ErrBadTrace, err)
	}
	return mapCtxErr(err)
}

// CellRef names one cell of a sweep grid: a configuration preset, a
// workload, and a seed-replica index (0 is the workload's calibrated
// seed; higher indices are decorrelated replicas).
type CellRef struct {
	Config   string
	Workload string
	Seed     int
}

func (c CellRef) String() string {
	return fmt.Sprintf("%s/%s#%d", c.Config, c.Workload, c.Seed)
}

// Cell is one finished cell of a sweep: its coordinates plus either a
// populated Run or an Err (simulation failure, panic, timeout, or
// cancellation). Cached marks cells satisfied from a resume checkpoint
// without simulating.
type Cell struct {
	CellRef
	Run    results.Run
	Err    error
	Cached bool
	// Deduped marks cells served by a shared CellCache (SweepCellCache):
	// an identical cell computed by — or concurrently in flight on —
	// another attached sweep, not re-simulated here.
	Deduped bool
	// Attempts is how many attempts the cell took (1 = first try; >1 means
	// transient failures were retried, see SweepRetries). 0 for cached
	// and deduped cells.
	Attempts int
}

// Progress is a sweep progress snapshot delivered after every finished
// cell (checkpoint-satisfied cells included).
type Progress struct {
	Done    int // cells finished so far (failed and cached included)
	Total   int // cells in the sweep
	Failed  int // cells that errored, panicked, or timed out
	Cached  int // cells satisfied from the resume checkpoint
	Deduped int // cells served by the shared CellCache, not simulated here
	// Cell is the cell that just finished, Err its failure (nil if it
	// succeeded), Elapsed the wall clock it took (0 if cached).
	Cell    CellRef
	Err     error
	IsCache bool
	IsDedup bool
	Elapsed time.Duration
	// Attempts is how many attempts this cell took (0 for cached cells;
	// >1 means transient failures were retried).
	Attempts int
}

// Sweep runs a (configuration × workload × seed) grid on a work-stealing
// worker pool with per-cell failure isolation, deterministic merging, and
// resumable checkpoints. Construct it with NewSweep and functional
// options; consume it either all-at-once (Run) or streaming (Results).
// The same Sweep also serves the paper's named experiment reports
// (Report), sharing its simulation cache across reports.
//
// Determinism: for a fixed option set, Run's output — and the set of cells
// Results streams — is bit-identical regardless of worker count or
// completion order.
type Sweep struct {
	configs         []string
	workloads       []string
	traces          []string
	seeds           int
	jobs            int
	workers         int
	warmup          int64
	measure         int64
	scheduler       Scheduler
	timeSkip        *bool
	checkpoint      string
	cellTimeout     time.Duration
	stallTimeout    time.Duration
	retries         int
	retryBackoff    time.Duration
	maxRetryBackoff time.Duration
	abandonBudget   int
	chaos           *Chaos
	cellCache       *CellCache
	onProgress      func(Progress)

	mu        sync.Mutex
	runner    *experiments.Runner // lazy; backs Report
	simulated int64               // µ-ops simulated by raw-grid runs (Run/Results)
	failures  map[CellRef]CellFailure
	retried   int // extra attempts spent across all cells
	recovered int // cells that failed at least once but ultimately succeeded
	abandoned int // goroutines abandoned to timeouts/stalls by raw-grid pools
	salvage   string

	workerRestarts   int // worker processes respawned after a crash
	workerReassigned int // cell attempts lost to a worker death and retried elsewhere
}

// SweepConfigs sets the configuration presets of the grid (required for
// Run and Results; ignored by Report, whose experiments pick their own).
func SweepConfigs(names ...string) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.configs = append([]string(nil), names...) })
}

// SweepWorkloads restricts the workload axis (default: the full Table 2
// suite).
func SweepWorkloads(names ...string) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.workloads = append([]string(nil), names...) })
}

// SweepTraces adds recorded µ-op traces (see Workload.Record and
// cmd/tracedump) as sweep workloads, each named after its file stem
// ("corpus/mcf.trace" → "mcf"). With no SweepWorkloads the grid runs over
// the traces alone; with one, the trace names are appended to the axis. A
// trace name shadows the Table 2 profile of the same name. Each trace's
// content digest joins the checkpoint fingerprint, so resuming against a
// swapped trace file is rejected instead of mixing results. Seed replicas
// of a trace cell vary the wrong-path seed only (the recorded stream is
// fixed); replica 0 replays bit-identically to the live workload.
func SweepTraces(paths ...string) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.traces = append(s.traces, paths...) })
}

// SweepSeeds sets the number of seed replicas per (config, workload) cell
// (default 1: the calibrated profile seed).
func SweepSeeds(n int) SweepOption { return sweepOptionFunc(func(s *Sweep) { s.seeds = n }) }

// SweepJobs bounds the worker goroutines (default: GOMAXPROCS).
func SweepJobs(n int) SweepOption { return sweepOptionFunc(func(s *Sweep) { s.jobs = n }) }

// defaultWorkerRetries is the per-cell attempt budget a sweep with
// subprocess workers gets when the caller set none: worker crashes are
// transient failures by design, and reassigning the lost cell needs at
// least one spare attempt.
const defaultWorkerRetries = 3

// SweepWorkers executes cells in n supervised worker subprocesses instead
// of in-process goroutines (default 0 = in-process). Each worker is a
// re-exec of the current binary — which must call MaybeWorker at the top
// of main — running one cell per request over a stdin/stdout protocol.
// Results are bit-identical to in-process execution: a cell's outcome is a
// pure function of its (configuration, workload, seed, window) spec, so
// placement cannot matter. A crashed worker (OOM kill, runaway simulation,
// stack overflow) costs one respawn and one transient cell retry rather
// than the whole process; workers that crash repeatedly are retired and,
// when every slot is gone, cells fall back to in-process execution so the
// sweep still completes. FailureReport counts the restarts and
// reassignments. Unless SweepJobs says otherwise, the pool concurrency
// follows the worker count; unless SweepRetries says otherwise, the
// per-cell attempt budget defaults to 3 so reassignment has room to work.
func SweepWorkers(n int) SweepOption { return sweepOptionFunc(func(s *Sweep) { s.workers = n }) }

// SweepWarmup sets the per-cell warmup window in µ-ops.
//
// Deprecated: use Warmup, which simulators accept too.
func SweepWarmup(uops int64) SweepOption { return Warmup(uops) }

// SweepMeasure sets the per-cell measurement window in µ-ops.
//
// Deprecated: use Measure, which simulators accept too.
func SweepMeasure(uops int64) SweepOption { return Measure(uops) }

// SweepCheckpoint names a resumable checkpoint file: completed cells are
// recorded there (flushed periodically and on completion or cancellation)
// and a restarted sweep with the same options skips them. A file written
// under different sweep options is rejected, not silently merged.
func SweepCheckpoint(path string) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.checkpoint = path })
}

// SweepCellTimeout bounds one cell's wall-clock time (0 = unbounded); a
// timed-out cell fails alone and the sweep continues.
func SweepCellTimeout(d time.Duration) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.cellTimeout = d })
}

// SweepStallTimeout arms the per-cell stall watchdog: a cell whose
// simulated-cycle counter stops advancing for d wall-clock time is killed
// early with a stall error instead of waiting out SweepCellTimeout. Slow
// but progressing cells are spared — the watchdog reads forward progress,
// not wall clock. 0 (the default) disables it.
func SweepStallTimeout(d time.Duration) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.stallTimeout = d })
}

// SweepRetries sets the attempt budget per cell (default 1 = no retries).
// Only transiently failing cells are retried — panics, timeouts, stalls,
// and errors exposing Transient() bool — while deterministic failures
// (ErrBadTrace, ErrInvalidConfig) fail immediately: rerunning a
// deterministic simulator on identical input cannot change the outcome.
func SweepRetries(attempts int) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.retries = attempts })
}

// SweepRetryBackoff shapes the delay between retry attempts: base before
// the first retry, doubling per subsequent retry, capped at max (base 0
// defaults to 100ms, max 0 to 32×base).
func SweepRetryBackoff(base, max time.Duration) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.retryBackoff, s.maxRetryBackoff = base, max })
}

// SweepAbandonBudget bounds the goroutines a sweep may abandon to timed-out
// or stalled cells before it stops retrying them (such goroutines cannot be
// forcibly killed and may linger until their simulation polls
// cancellation). 0 (the default) allows 2× the worker count; negative is
// unlimited.
func SweepAbandonBudget(n int) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.abandonBudget = n })
}

// Chaos is a deterministic fault-injection plan for resilience testing:
// each rate is the per-attempt probability (0..1) of injecting that fault
// into a cell, decided by a pure function of (Seed, cell, attempt) so a
// rerun with the same plan injects the identical faults. Injected faults
// exercise exactly the production failure paths — panic recovery, the
// watchdog, retry classification, checkpoint salvage — so a chaos sweep
// that converges proves the recovery machinery, and its results are
// bit-identical to a fault-free run.
type Chaos struct {
	// Seed keys every injection decision (0 = a fixed default plan).
	Seed uint64
	// PanicRate injects a panic inside the cell goroutine.
	PanicRate float64
	// HangRate blocks the cell until the watchdog or timeout kills it —
	// only meaningful with SweepCellTimeout or SweepStallTimeout set,
	// otherwise the cell hangs forever.
	HangRate float64
	// TransientRate fails the cell with a retryable error.
	TransientRate float64
	// CorruptTraceRate fails the cell with a permanent ErrBadTrace-class
	// error (never retried).
	CorruptTraceRate float64
	// TornWriteRate truncates a checkpoint flush mid-write, exercising the
	// salvage/backup recovery on resume.
	TornWriteRate float64
	// MaxFaultsPerCell caps injections per cell (default 2) so a chaos
	// sweep with enough retries always converges.
	MaxFaultsPerCell int
}

// plan lowers the public chaos description to the internal fault plan.
func (c *Chaos) plan() *faultinject.Plan {
	if c == nil {
		return nil
	}
	return &faultinject.Plan{
		Seed:             c.Seed,
		PanicRate:        c.PanicRate,
		HangRate:         c.HangRate,
		TransientRate:    c.TransientRate,
		CorruptTraceRate: c.CorruptTraceRate,
		TornWriteRate:    c.TornWriteRate,
		MaxFaultsPerCell: c.MaxFaultsPerCell,
	}
}

// SweepChaos injects the given deterministic fault plan into every cell and
// checkpoint flush (nil = no injection). Production sweeps leave this
// unset; CI chaos jobs and cmd/experiments -chaos use it to prove the
// resilience machinery end to end.
func SweepChaos(c Chaos) SweepOption { return sweepOptionFunc(func(s *Sweep) { s.chaos = &c }) }

// SweepProgress installs a progress callback, invoked after every finished
// cell from a single goroutine.
func SweepProgress(fn func(Progress)) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.onProgress = fn })
}

// NewSweep builds a sweep description. Options are validated when the
// sweep runs, so construction never fails.
func NewSweep(opts ...SweepOption) *Sweep {
	s := &Sweep{seeds: 1, warmup: DefaultWarmup, measure: DefaultMeasure}
	for _, o := range opts {
		o.applySweep(s)
	}
	return s
}

// loadTraces resolves the sweep's trace paths into a trace set plus the
// ordered trace workload names, validating every header up front.
func (s *Sweep) loadTraces() (sim.TraceSet, []string, error) {
	if len(s.traces) == 0 {
		return nil, nil, nil
	}
	set := make(sim.TraceSet, len(s.traces))
	names := make([]string, 0, len(s.traces))
	for _, path := range s.traces {
		ref, err := sim.LoadTrace(path)
		if err != nil {
			return nil, nil, wrapErr(ErrBadTrace, err)
		}
		if prev, dup := set[ref.Name]; dup {
			return nil, nil, wrapErrf(ErrInvalidConfig,
				"specsched: traces %s and %s both name workload %q", prev.Path, ref.Path, ref.Name)
		}
		set[ref.Name] = ref
		names = append(names, ref.Name)
	}
	return set, names, nil
}

// workloadAxis resolves the effective workload list: the explicit
// SweepWorkloads (validated as Table 2 profiles unless a trace shadows the
// name) plus any trace workloads not already listed; with no explicit list
// the axis is the traces alone, or the full suite when there are none.
func (s *Sweep) workloadAxis(traces sim.TraceSet, traceNames []string) ([]string, error) {
	if len(s.workloads) == 0 {
		if len(traceNames) > 0 {
			return append([]string(nil), traceNames...), nil
		}
		return WorkloadNames(), nil
	}
	wls := append([]string(nil), s.workloads...)
	for _, n := range wls {
		if _, ok := traces[n]; ok {
			continue
		}
		if err := validateWorkloads([]string{n}); err != nil {
			return nil, err
		}
	}
	listed := make(map[string]bool, len(wls))
	for _, n := range wls {
		listed[n] = true
	}
	for _, n := range traceNames {
		if !listed[n] {
			wls = append(wls, n)
		}
	}
	return wls, nil
}

// grid validates the sweep options and expands them into the cell grid, in
// deterministic grid order (configs outermost, then workloads, then
// seeds), alongside the trace set backing any trace workloads.
func (s *Sweep) grid() ([]sim.Cell, sim.TraceSet, error) {
	if len(s.configs) == 0 {
		return nil, nil, wrapErrf(ErrInvalidConfig,
			"specsched: sweep has no configurations (use SweepConfigs)")
	}
	impl, err := s.scheduler.impl()
	if err != nil {
		return nil, nil, err
	}
	traces, traceNames, err := s.loadTraces()
	if err != nil {
		return nil, nil, err
	}
	wls, err := s.workloadAxis(traces, traceNames)
	if err != nil {
		return nil, nil, err
	}
	seeds := s.seeds
	if seeds <= 0 {
		seeds = 1
	}
	cells := make([]sim.Cell, 0, len(s.configs)*len(wls)*seeds)
	for _, cn := range s.configs {
		cfg, err := config.Preset(cn)
		if err != nil {
			return nil, nil, wrapErr(ErrInvalidConfig, err)
		}
		cfg.Scheduler = impl
		if s.timeSkip != nil {
			cfg.TimeSkip = *s.timeSkip
		}
		for _, wl := range wls {
			for i := 0; i < seeds; i++ {
				cells = append(cells, sim.Cell{Config: cfg, Workload: wl, SeedIdx: i})
			}
		}
	}
	return cells, traces, nil
}

// runPool executes the cells on the work-stealing pool, streaming each
// finished cell to onResult (which may be nil), recording completions into
// the checkpoint, and flushing it before returning — including on
// cancellation, which is what keeps an interrupted sweep resumable.
func (s *Sweep) runPool(ctx context.Context, cells []sim.Cell, traces sim.TraceSet, onResult func(sim.Result)) ([]sim.Result, error) {
	plan := s.chaos.plan()
	var cp *sim.Checkpoint
	if s.checkpoint != "" {
		impl, _ := s.scheduler.impl()
		var err error
		cp, err = sim.LoadCheckpoint(s.checkpoint, sim.FingerprintTraces(s.warmup, s.measure, impl, traces))
		if err != nil {
			return nil, wrapErr(ErrInvalidConfig, err)
		}
		cp.SetChaos(plan)
	}
	jobs := s.jobs
	if jobs == 0 && s.workers > 0 {
		// One pool goroutine per worker process: more would just queue on
		// the worker slots and burn their cell timeouts waiting.
		jobs = s.workers
	}
	attempts := s.retries
	if attempts == 0 && s.workers > 0 {
		// Worker subprocesses make transient cell failures an expected
		// operational event — a crashed worker loses its in-flight cell —
		// so reassignment needs a retry budget to ride on. An explicit
		// SweepRetries still wins.
		attempts = defaultWorkerRetries
	}
	pool := &sim.Pool{
		Jobs:            jobs,
		CellTimeout:     s.cellTimeout,
		StallTimeout:    s.stallTimeout,
		MaxAttempts:     attempts,
		RetryBackoff:    s.retryBackoff,
		MaxRetryBackoff: s.maxRetryBackoff,
		AbandonBudget:   s.abandonBudget,
		Chaos:           plan,
		Checkpoint:      cp,
		OnResult:        onResult,
	}
	if s.cellCache != nil {
		pool.Dedup = s.cellCache.d
		pool.DedupKey = func(c sim.Cell) string {
			return sim.DedupKey(c, s.warmup, s.measure, traces)
		}
	}
	pool.OnProgress = s.poolProgress()

	local := sim.LocalRunner{Warmup: s.warmup, Measure: s.measure, Traces: traces}
	runner := sim.CellRunner(local)
	var wp *worker.Pool
	if s.workers > 0 {
		var err error
		wp, err = worker.NewPool(worker.Options{
			Workers:  s.workers,
			Warmup:   s.warmup,
			Measure:  s.measure,
			Traces:   traces,
			Fallback: local,
		})
		if err != nil {
			return nil, wrapErr(ErrInvalidConfig, err)
		}
		runner = wp
	}
	res := pool.RunWith(ctx, cells, runner)
	if wp != nil {
		wp.Close()
		st := wp.Stats()
		s.mu.Lock()
		s.workerRestarts += int(st.Restarts)
		s.workerReassigned += int(st.Reassigned)
		s.mu.Unlock()
	}

	var executed int64
	var failures int
	for _, r := range res {
		if r.Err == nil && !r.Cached && !r.Deduped {
			executed += s.warmup + s.measure
		}
		if r.Err != nil {
			failures++
		}
	}
	s.mu.Lock()
	s.simulated += executed
	s.abandoned += pool.Abandoned()
	if cp != nil && cp.Salvage() != nil && s.salvage == "" {
		s.salvage = cp.Salvage().String()
	}
	s.mu.Unlock()

	var flushErr error
	if cp != nil {
		// Flush even (especially) on cancellation: the completed cells are
		// what makes the interrupted sweep resumable.
		flushErr = cp.Flush()
	}
	switch {
	case ctx.Err() != nil:
		cause := context.Cause(ctx)
		if flushErr != nil {
			// Surface both: the caller needs to know the checkpoint did NOT
			// capture the completed cells despite the cancel-flush contract.
			cause = errors.Join(cause, flushErr)
		}
		return res, wrapErr(ErrCanceled,
			fmt.Errorf("specsched: sweep interrupted after %d/%d cells: %w",
				len(cells)-failures, len(cells), cause))
	case flushErr != nil:
		return res, flushErr
	case failures > 0:
		return res, fmt.Errorf("specsched: %d/%d sweep cells failed (inspect per-cell errors): %w",
			failures, len(cells), errCellsFailed)
	}
	return res, nil
}

// poolProgress bridges the internal pool progress callback to the sweep's
// public one and — callback or not — records per-cell failure outcomes for
// FailureReport. A cell that fails and later succeeds on retry (or in a
// later report sharing this sweep) is removed from the failure set and
// counted as recovered.
func (s *Sweep) poolProgress() func(sim.Progress) {
	fn := s.onProgress
	return func(p sim.Progress) {
		ref := CellRef{Config: p.Cell.Config.Name, Workload: p.Cell.Workload, Seed: p.Cell.SeedIdx}
		s.mu.Lock()
		if p.CellAttempts > 1 {
			s.retried += p.CellAttempts - 1
		}
		if p.CellErr != nil {
			if s.failures == nil {
				s.failures = make(map[CellRef]CellFailure)
			}
			s.failures[ref] = CellFailure{
				Cell:      ref,
				Err:       mapCellErr(p.CellErr),
				Attempts:  p.CellAttempts,
				Transient: sim.Transient(p.CellErr),
			}
		} else {
			if _, failedBefore := s.failures[ref]; failedBefore || p.CellAttempts > 1 {
				s.recovered++
			}
			delete(s.failures, ref)
		}
		s.mu.Unlock()
		if fn != nil {
			fn(Progress{
				Done: p.Done, Total: p.Total, Failed: p.Failed, Cached: p.Cached,
				Deduped:  p.Deduped,
				Cell:     ref,
				Err:      mapCellErr(p.CellErr),
				IsCache:  p.CellCached,
				IsDedup:  p.CellDeduped,
				Elapsed:  time.Duration(p.Elapsed * float64(time.Second)),
				Attempts: p.CellAttempts,
			})
		}
	}
}

// CellFailure describes one sweep cell that ended in failure: its
// coordinates, the (public-taxonomy) error, the attempts spent, and whether
// the failure class is transient — i.e. whether a larger SweepRetries
// budget could plausibly have recovered it.
type CellFailure struct {
	Cell      CellRef
	Err       error
	Attempts  int
	Transient bool
}

// FailureReport aggregates a sweep's resilience outcomes across everything
// it has run so far (raw grids and experiment reports).
type FailureReport struct {
	// Failed lists cells whose final outcome was an error, sorted by
	// (config, workload, seed). A cell that failed and later succeeded —
	// on retry, or re-executed by a later report — is not listed.
	Failed []CellFailure
	// Recovered counts cells that failed at least one attempt but
	// ultimately succeeded.
	Recovered int
	// Retries counts extra attempts spent beyond each cell's first.
	Retries int
	// Abandoned counts goroutines abandoned to timed-out or stalled cells
	// (they linger until their simulation polls cancellation).
	Abandoned int
	// CheckpointSalvage describes what had to be salvaged from a damaged
	// resume checkpoint ("" when the load was clean).
	CheckpointSalvage string
	// WorkerRestarts counts worker subprocesses respawned after a crash
	// (0 unless SweepWorkers is in effect).
	WorkerRestarts int
	// WorkerReassigned counts cell attempts lost to a worker death; each
	// was reassigned to another worker through the transient-retry
	// machinery.
	WorkerReassigned int
}

// FailureReport returns the sweep's aggregate resilience outcomes so far.
// It may be called mid-sweep (from a progress callback or another
// goroutine) for a consistent snapshot, or after Run/Results/Report to
// summarize what failed, what recovered, and what the retry machinery paid.
//
// Concurrency: FailureReport is safe to call at any time from any
// goroutine, including concurrently with Run, Results iteration, and
// Report — all mutable sweep state is guarded by one mutex, the returned
// report is a deep-enough copy (the CellFailure errors it shares are
// immutable), and nothing in it aliases state a running sweep will mutate.
// The specschedd status endpoint calls it on live jobs on every poll.
func (s *Sweep) FailureReport() FailureReport {
	s.mu.Lock()
	fr := FailureReport{
		Recovered:         s.recovered,
		Retries:           s.retried,
		Abandoned:         s.abandoned,
		CheckpointSalvage: s.salvage,
		WorkerRestarts:    s.workerRestarts,
		WorkerReassigned:  s.workerReassigned,
	}
	for _, f := range s.failures {
		fr.Failed = append(fr.Failed, f)
	}
	r := s.runner
	s.mu.Unlock()
	if r != nil {
		fr.Abandoned += r.Abandoned()
		restarts, reassigned := r.WorkerStats()
		fr.WorkerRestarts += restarts
		fr.WorkerReassigned += reassigned
		if fr.CheckpointSalvage == "" {
			fr.CheckpointSalvage = r.CheckpointSalvage()
		}
	}
	sort.Slice(fr.Failed, func(i, j int) bool {
		a, b := fr.Failed[i].Cell, fr.Failed[j].Cell
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Seed < b.Seed
	})
	return fr
}

// toCell converts an internal pool result to the public cell record.
func toCell(r sim.Result) Cell {
	c := Cell{
		CellRef:  CellRef{Config: r.Cell.Config.Name, Workload: r.Cell.Workload, Seed: r.Cell.SeedIdx},
		Err:      mapCellErr(r.Err),
		Cached:   r.Cached,
		Deduped:  r.Deduped,
		Attempts: r.Attempts,
	}
	if r.Run != nil {
		c.Run = runFromStatsElapsed(r.Run, time.Duration(r.Elapsed*float64(time.Second)))
	}
	return c
}

// Run executes the whole grid and returns every cell in deterministic grid
// order (configs, then workloads, then seed indices — the order the
// options declared them). A failing cell carries its error in Cell.Err and
// never aborts the sweep; the returned error is non-nil if any cell failed
// or the context was canceled (matching ErrCanceled, with the completed
// cells still present in the slice and, if configured, the checkpoint).
func (s *Sweep) Run(ctx context.Context) ([]Cell, error) {
	cells, traces, err := s.grid()
	if err != nil {
		return nil, err
	}
	res, err := s.runPool(ctx, cells, traces, nil)
	if res == nil {
		return nil, err
	}
	out := make([]Cell, len(res))
	for i, r := range res {
		out[i] = toCell(r)
	}
	return out, err
}

// Results streams the sweep: it starts the grid in the background and
// yields each cell as it completes (checkpoint-satisfied cells first, then
// fresh completions in finish order). The second element of each pair is
// that cell's error — per-cell failures stream inline and do not stop the
// sweep. Breaking out of the iteration cancels the remaining work. If the
// sweep stops early (context canceled, invalid options), one final pair
// with a zero Cell and the terminal error is yielded.
//
// The streamed cells are exactly the cells Run would return — same
// coordinates, bit-identical counters — only the order differs.
func (s *Sweep) Results(ctx context.Context) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		cells, traces, err := s.grid()
		if err != nil {
			yield(Cell{}, err)
			return
		}
		inner, cancel := context.WithCancel(ctx)
		defer cancel()

		// Buffered to the grid size: the pool's collector never blocks on a
		// slow — or abandoned — consumer, so breaking out of the iteration
		// can never strand the sweep goroutine.
		ch := make(chan sim.Result, len(cells))
		errc := make(chan error, 1)
		go func() {
			defer close(ch)
			_, err := s.runPool(inner, cells, traces, func(r sim.Result) { ch <- r })
			errc <- err
		}()

		stopped := false
		for r := range ch {
			if stopped {
				continue // drain so the pool's collector can finish
			}
			if !yield(toCell(r), mapCellErr(r.Err)) {
				stopped = true
				cancel()
			}
		}
		if err := <-errc; err != nil && !stopped {
			// Cell-level failures were already streamed inline (the
			// errCellsFailed aggregate adds nothing); only a terminal
			// condition (cancellation, checkpoint failure) warrants a final
			// error element.
			if !errors.Is(err, errCellsFailed) {
				yield(Cell{}, mapCellErr(err))
			}
		}
	}
}

// errCellsFailed marks the aggregate "N cells failed" sweep error, whose
// per-cell causes are carried by the cells themselves.
var errCellsFailed = errors.New("sweep cells failed")

// Reports lists the named experiment reports Report understands — the
// paper's tables and figures (table1, table2, fig3..fig8, delays, summary)
// plus the repository's ablation studies.
func Reports() []string { return experiments.Names() }

// Report regenerates one named experiment report (see Reports), running
// whatever cells of its grid are not already cached or checkpointed. The
// sweep's workload/seed/jobs/checkpoint/scheduler options apply; its
// configuration list does not (each experiment prescribes its own
// configurations). Reports called on the same Sweep share a simulation
// cache, so figures that share configurations (every figure needs the
// Baseline_0 runs) pay for them once.
func (s *Sweep) Report(ctx context.Context, name string) (string, error) {
	r, err := s.reportRunner()
	if err != nil {
		return "", err
	}
	out, err := r.Run(ctx, name)
	return out, mapCtxErr(err)
}

// reportRunner lazily builds the experiments runner backing Report.
func (s *Sweep) reportRunner() (*experiments.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runner != nil {
		return s.runner, nil
	}
	impl, err := s.scheduler.impl()
	if err != nil {
		return nil, err
	}
	traces, traceNames, err := s.loadTraces()
	if err != nil {
		return nil, err
	}
	wls, err := s.workloadAxis(traces, traceNames)
	if err != nil {
		return nil, err
	}
	refs := make([]sim.TraceRef, 0, len(traceNames))
	for _, n := range traceNames {
		refs = append(refs, traces[n])
	}
	opts := experiments.Options{
		Warmup:          s.warmup,
		Measure:         s.measure,
		Workloads:       wls,
		Traces:          refs,
		Parallel:        s.jobs,
		Workers:         s.workers,
		Seeds:           s.seeds,
		Scheduler:       impl,
		CellTimeout:     s.cellTimeout,
		StallTimeout:    s.stallTimeout,
		MaxAttempts:     s.retries,
		RetryBackoff:    s.retryBackoff,
		MaxRetryBackoff: s.maxRetryBackoff,
		AbandonBudget:   s.abandonBudget,
		Chaos:           s.chaos.plan(),
		Checkpoint:      s.checkpoint,
	}
	if s.timeSkip != nil {
		opts.DisableTimeSkip = !*s.timeSkip
	}
	opts.OnProgress = s.poolProgress()
	s.runner = experiments.NewRunner(opts)
	return s.runner, nil
}

// Snapshot returns every pooled (config, workload) run the sweep's report
// runner has produced so far, in deterministic sorted order — the payload
// behind cmd/experiments -json. Raw-grid runs (Run/Results) are not
// included; they are returned directly by those methods.
func (s *Sweep) Snapshot() []results.Run {
	s.mu.Lock()
	r := s.runner
	s.mu.Unlock()
	if r == nil {
		return nil
	}
	set := r.Snapshot()
	var out []results.Run
	for _, cn := range set.Configs() {
		for _, wl := range set.Workloads() {
			if run := set.Get(cn, wl); run != nil {
				out = append(out, runFromStats(run))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		return out[i].Workload < out[j].Workload
	})
	return out
}

// SimulatedUOps returns the total µ-ops simulated by this sweep so far
// (warmup included; checkpoint-cached cells excluded), across raw-grid
// runs and experiment reports — the numerator of throughput reporting.
func (s *Sweep) SimulatedUOps() int64 {
	s.mu.Lock()
	n := s.simulated
	r := s.runner
	s.mu.Unlock()
	if r != nil {
		n += r.SimulatedUOps()
	}
	return n
}
