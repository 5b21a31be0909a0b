package specsched

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
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

// mapCellErr lifts sim.Run errors — sweep cells' and Simulator.Run's alike
// — into the public taxonomy: trace-caused failures match ErrBadTrace,
// cancellation matches ErrCanceled, everything else passes through.
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
	// transient failures were retried, see SweepSpec.Retries). 0 for cached
	// and deduped cells.
	Attempts int
}

// Progress is delivered after every finished cell (checkpoint-satisfied
// cells included): the Cell itself plus how far the grid being run has
// got — one Run or Results call, or one grid a Report executes.
type Progress struct {
	Cell
	Done  int // cells finished so far (failed and cached included)
	Total int // cells in the grid
}

// Sweep runs a (configuration × workload × seed) grid on a worker pool
// with per-cell failure isolation, deterministic merging, and resumable
// checkpoints. Construct it with NewSweepFromSpec; consume it either
// all-at-once (Run) or streaming (Results). The same Sweep also serves the
// paper's named experiment reports (Report), sharing its simulation cache
// across reports.
//
// Determinism: for a fixed SweepSpec, Run's output — and the set of cells
// Results streams — is bit-identical regardless of worker count or
// completion order.
//
// Every knob lives in one SweepSpec: NewSweepFromSpec copies it in and
// Spec copies it out. Only what cannot be written as data — a progress
// callback (SweepProgress) and a shared cell cache (SweepCellCache) — is a
// SweepOption. Run, Results and Report all execute on the same pool
// (runPool), sharing one checkpoint and one cell cache.
type Sweep struct {
	// spec holds every knob, with the window, seed and worker defaults
	// resolved; err is its validation verdict, computed once at
	// construction.
	spec       SweepSpec
	err        error
	cellCache  *CellCache
	onProgress func(Progress)

	mu sync.Mutex
	// wls, traces and ckpt are resolved once, by the first run (see
	// prepare), and shared by every later one; wls is non-nil once set.
	wls       []string
	traces    sim.TraceSet
	ckpt      *sim.Checkpoint
	runner    *experiments.Runner // lazy; backs Report
	simulated int64               // µ-ops simulated, warmup included
	failures  map[CellRef]CellFailure
	retried   int // extra attempts spent across all cells
	recovered int // cells that failed at least once but ultimately succeeded
	abandoned int // goroutines abandoned to timeouts/stalls
	salvage   string

	workerRestarts   int // worker processes respawned after a crash
	workerReassigned int // cell attempts lost to a worker death and retried elsewhere
}

// defaultWorkerRetries is the per-cell attempt budget a sweep with
// subprocess workers gets when the spec sets none: worker crashes are
// transient failures by design, and reassigning the lost cell needs at
// least one spare attempt.
const defaultWorkerRetries = 3

// Chaos is a deterministic fault-injection plan for resilience testing:
// each rate is the per-attempt probability (0..1) of injecting that fault
// into a cell, decided by a pure function of (Seed, cell, attempt) so a
// rerun with the same plan injects the identical faults. Injected faults
// exercise exactly the production failure paths — panic recovery, the
// watchdog, retry classification, checkpoint salvage — so a chaos sweep
// that converges proves the recovery machinery, and its results are
// bit-identical to a fault-free run. Production sweeps leave
// SweepSpec.Chaos nil; CI chaos jobs and cmd/experiments -chaos set it to
// prove the resilience machinery end to end.
type Chaos struct {
	// Seed keys every injection decision (0 = a fixed default plan).
	Seed uint64
	// PanicRate injects a panic inside the cell goroutine.
	PanicRate float64
	// HangRate blocks the cell until the watchdog or timeout kills it. A
	// spec with HangRate > 0 must set CellTimeout or StallTimeout, or it
	// is rejected: the hung cell would never end.
	HangRate float64
	// TransientRate fails the cell with a retryable error.
	TransientRate float64
	// CorruptTraceRate fails the cell with a permanent ErrBadTrace-class
	// error (never retried).
	CorruptTraceRate float64
	// TornWriteRate truncates a checkpoint flush mid-write, exercising the
	// salvage recovery on resume.
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

// SweepProgress installs a progress callback, invoked after every finished
// cell from a single goroutine.
func SweepProgress(fn func(Progress)) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.onProgress = fn })
}

// NewSweep builds a sweep from options, validating them exactly as
// NewSweepFromSpec validates a spec; an invalid set is reported by the
// first Run, Results or Report.
//
// Deprecated: use NewSweepFromSpec. NewSweep and its setters SweepJobs,
// SweepWorkloads, SweepWarmup and SweepMeasure are kept only because the
// frozen perfbench module calls them.
func NewSweep(opts ...SweepOption) *Sweep { return newSweep(SweepSpec{}, opts) }

// SweepJobs sets SweepSpec.Jobs.
//
// Deprecated: set SweepSpec.Jobs; kept only for perfbench.
func SweepJobs(n int) SweepOption { return sweepOptionFunc(func(s *Sweep) { s.spec.Jobs = n }) }

// SweepWorkloads sets SweepSpec.Workloads.
//
// Deprecated: set SweepSpec.Workloads; kept only for perfbench.
func SweepWorkloads(names ...string) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.spec.Workloads = append([]string(nil), names...) })
}

// SweepWarmup sets SweepSpec.Warmup.
//
// Deprecated: set SweepSpec.Warmup; kept only for perfbench.
func SweepWarmup(uops int64) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.spec.Warmup = &uops })
}

// SweepMeasure sets SweepSpec.Measure.
//
// Deprecated: set SweepSpec.Measure; kept only for perfbench.
func SweepMeasure(uops int64) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.spec.Measure = &uops })
}

// newSweep applies opts over a copy of spec, validates the result once,
// and resolves the defaults Spec then states explicitly: the windows, the
// seed count, and — with worker subprocesses — the pool concurrency and
// the retry budget.
func newSweep(spec SweepSpec, opts []SweepOption) *Sweep {
	s := &Sweep{spec: spec.clone()}
	for _, o := range opts {
		o.applySweep(s)
	}
	sp := &s.spec
	if sp.Warmup == nil {
		sp.Warmup = ptr(DefaultWarmup)
	}
	if sp.Measure == nil {
		sp.Measure = ptr(DefaultMeasure)
	}
	s.err = sp.validate()
	sp.Seeds = max(sp.Seeds, 1)
	if sp.Workers > 0 {
		if sp.Jobs == 0 {
			// One pool goroutine per worker process: more would just queue
			// on the worker slots and burn their cell timeouts waiting.
			sp.Jobs = sp.Workers
		}
		if sp.Retries == 0 {
			// A crashed worker loses its in-flight cell, so reassignment
			// needs a retry budget to ride on.
			sp.Retries = defaultWorkerRetries
		}
	}
	return s
}

// prepare resolves, once per sweep, what all of its runs share: the trace
// set, the workload axis, and the resume checkpoint. A failure is not
// kept, so a later run tries again.
func (s *Sweep) prepare() error {
	if s.err != nil {
		return s.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wls != nil {
		return nil
	}
	traces, names, err := s.loadTraces()
	if err != nil {
		return err
	}
	if path := s.spec.Checkpoint; path != "" {
		cp, err := sim.LoadCheckpoint(path, sim.FingerprintTraces(*s.spec.Warmup, *s.spec.Measure, traces))
		if err != nil {
			return wrapErr(ErrInvalidConfig, err)
		}
		cp.SetChaos(s.spec.Chaos.plan())
		if cp.Salvage() != nil {
			s.salvage = cp.Salvage().String()
		}
		s.ckpt = cp
	}
	s.traces, s.wls = traces, s.workloadAxis(names)
	return nil
}

// loadTraces loads the sweep's trace files into a trace set plus the
// ordered trace workload names.
func (s *Sweep) loadTraces() (sim.TraceSet, []string, error) {
	if len(s.spec.Traces) == 0 {
		return nil, nil, nil
	}
	set := make(sim.TraceSet, len(s.spec.Traces))
	names := make([]string, 0, len(s.spec.Traces))
	for _, path := range s.spec.Traces {
		ref, err := sim.LoadTrace(path)
		if err != nil {
			return nil, nil, wrapErr(ErrBadTrace, err)
		}
		set[ref.Name] = ref
		names = append(names, ref.Name)
	}
	return set, names, nil
}

// workloadAxis resolves the effective workload list: the explicit
// SweepWorkloads plus any trace workloads not already listed; with no
// explicit list the axis is the traces alone, or the full suite when there
// are none.
func (s *Sweep) workloadAxis(traceNames []string) []string {
	if len(s.spec.Workloads) == 0 {
		if len(traceNames) > 0 {
			return traceNames
		}
		return WorkloadNames()
	}
	wls := append([]string(nil), s.spec.Workloads...)
	for _, n := range traceNames {
		if !slices.Contains(wls, n) {
			wls = append(wls, n)
		}
	}
	return wls
}

// grid expands the sweep into its cell grid, in deterministic grid order
// (configs outermost, then workloads, then seeds).
func (s *Sweep) grid() ([]sim.Cell, error) {
	if len(s.spec.Configs) == 0 {
		return nil, wrapErrf(ErrInvalidConfig,
			"specsched: sweep has no configurations (set SweepSpec.Configs)")
	}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	cells := make([]sim.Cell, 0, len(s.spec.Configs)*len(s.wls)*s.spec.Seeds)
	for _, cn := range s.spec.Configs {
		cfg, err := config.Preset(cn)
		if err != nil {
			return nil, wrapErr(ErrInvalidConfig, err)
		}
		for _, wl := range s.wls {
			for i := 0; i < s.spec.Seeds; i++ {
				cells = append(cells, sim.Cell{Config: cfg, Workload: wl, SeedIdx: i})
			}
		}
	}
	return cells, nil
}

// runPool executes the cells on the worker pool, the one grid engine
// behind Run, Results and Report. It streams each finished cell, with its
// index in cells, to onCell (which may be nil), records completions into
// the sweep's checkpoint, and flushes it before returning — including on
// cancellation, which is what keeps an interrupted sweep resumable. The
// caller has run prepare.
func (s *Sweep) runPool(ctx context.Context, cells []sim.Cell, onCell func(int, Cell)) ([]sim.Result, error) {
	sp := &s.spec
	warmup, measure := *sp.Warmup, *sp.Measure
	pool := &sim.Pool{
		Jobs:         sp.Jobs,
		CellTimeout:  time.Duration(sp.CellTimeout),
		StallTimeout: time.Duration(sp.StallTimeout),
		MaxAttempts:  sp.Retries,
		RetryBackoff: time.Duration(sp.RetryBackoff),
		Chaos:        sp.Chaos.plan(),
		Checkpoint:   s.ckpt,
		OnResult:     s.cellHook(len(cells), onCell),
	}
	if s.cellCache != nil {
		pool.Dedup = s.cellCache.d
		pool.DedupKey = func(c sim.Cell) string {
			return sim.DedupKey(c, warmup, measure, s.traces)
		}
	}

	local := sim.LocalRunner{Warmup: warmup, Measure: measure, Traces: s.traces}
	runner := sim.CellRunner(local)
	var wp *worker.Pool
	if sp.Workers > 0 {
		var err error
		wp, err = worker.NewPool(worker.Options{
			Workers:  sp.Workers,
			Warmup:   warmup,
			Measure:  measure,
			Traces:   s.traces,
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
			executed += warmup + measure
		}
		if r.Err != nil {
			failures++
		}
	}
	s.mu.Lock()
	s.simulated += executed
	s.abandoned += pool.Abandoned()
	s.mu.Unlock()

	var flushErr error
	if s.ckpt != nil {
		// Flush even (especially) on cancellation: the completed cells are
		// what makes the interrupted sweep resumable.
		flushErr = s.ckpt.Flush()
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

// cellHook returns the pool's one per-cell hook for a grid of total
// cells. It converts each finished cell once, records the outcome for
// FailureReport (a cell that fails and later succeeds — on retry, or in a
// later report sharing this sweep — leaves the failure set and counts as
// recovered), delivers the Progress, and forwards the cell and its grid
// index to onCell (which may be nil). The pool calls it from its single
// collector goroutine, so the done count needs no lock.
func (s *Sweep) cellHook(total int, onCell func(int, Cell)) func(int, sim.Result) {
	done := 0
	return func(i int, r sim.Result) {
		c := toCell(r)
		s.mu.Lock()
		s.retried += max(c.Attempts-1, 0)
		if c.Err != nil {
			if s.failures == nil {
				s.failures = make(map[CellRef]CellFailure)
			}
			s.failures[c.CellRef] = CellFailure{Cell: c.CellRef, Err: c.Err, Attempts: c.Attempts, Transient: sim.Transient(r.Err)}
		} else {
			if _, failedBefore := s.failures[c.CellRef]; failedBefore || c.Attempts > 1 {
				s.recovered++
			}
			delete(s.failures, c.CellRef)
		}
		s.mu.Unlock()

		done++
		if s.onProgress != nil {
			s.onProgress(Progress{Cell: c, Done: done, Total: total})
		}
		if onCell != nil {
			onCell(i, c)
		}
	}
}

// CellFailure describes one sweep cell that ended in failure: its
// coordinates, the (public-taxonomy) error, the attempts spent, and whether
// the failure class is transient — i.e. whether a larger SweepSpec.Retries
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
	// (0 unless SweepSpec.Workers is set).
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
	s.mu.Unlock()
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
		c.Run = *r.Run
		c.Run.Elapsed = r.Elapsed
	}
	return c
}

// Run executes the whole grid and returns every cell in deterministic grid
// order (configs, then workloads, then seed indices — the order the
// spec declares them). A failing cell carries its error in Cell.Err and
// never aborts the sweep; the returned error is non-nil if any cell failed
// or the context was canceled (matching ErrCanceled, with the completed
// cells still present in the slice and, if configured, the checkpoint).
func (s *Sweep) Run(ctx context.Context) ([]Cell, error) {
	cells, err := s.grid()
	if err != nil {
		return nil, err
	}
	// Keep each cell the hook converted; only cells that never finished
	// (canceled ones) are converted here.
	out := make([]Cell, len(cells))
	converted := make([]bool, len(cells))
	res, err := s.runPool(ctx, cells, func(i int, c Cell) {
		out[i], converted[i] = c, true
	})
	if res == nil {
		return nil, err
	}
	for i, r := range res {
		if !converted[i] {
			out[i] = toCell(r)
		}
	}
	return out, err
}

// Results streams the sweep: it starts the grid in the background and
// yields each cell as it completes (checkpoint-satisfied cells first, in
// the order the checkpoint recorded them, then fresh completions in
// finish order — so a resumed sweep streams its earlier cells in the
// order it first finished them). The second element of each pair is
// that cell's error — per-cell failures stream inline and do not stop the
// sweep. Breaking out of the iteration cancels the remaining work. If the
// sweep stops early (context canceled, invalid options), one final pair
// with a zero Cell and the terminal error is yielded.
//
// The streamed cells are exactly the cells Run would return — same
// coordinates, bit-identical counters — only the order differs.
func (s *Sweep) Results(ctx context.Context) iter.Seq2[Cell, error] {
	return func(yield func(Cell, error) bool) {
		cells, err := s.grid()
		if err != nil {
			yield(Cell{}, err)
			return
		}
		inner, cancel := context.WithCancel(ctx)
		defer cancel()

		// Buffered to the grid size: the pool's collector never blocks on a
		// slow — or abandoned — consumer, so breaking out of the iteration
		// can never strand the sweep goroutine.
		ch := make(chan Cell, len(cells))
		errc := make(chan error, 1)
		go func() {
			defer close(ch)
			_, err := s.runPool(inner, cells, func(_ int, c Cell) { ch <- c })
			errc <- err
		}()

		stopped := false
		for c := range ch {
			if stopped {
				continue // drain so the pool's collector can finish
			}
			if !yield(c, c.Err) {
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
// cells run on the same pool as Run, with every spec field applied —
// workloads, seeds, windows, jobs, workers, retries, checkpoint, cell
// cache — except the configuration list (each experiment prescribes its
// own configurations). Reports called on the same Sweep share a
// simulation cache, so figures that share configurations (every figure
// needs the Baseline_0 runs) pay for them once.
//
// A report's text is fixed once it renders without error: later calls for
// the same name on the same Sweep return that text and run nothing. A
// failure is not kept; the next call retries the cells that are missing.
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
	if err := s.prepare(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runner == nil {
		s.runner = experiments.NewRunner(s.wls, s.spec.Seeds, s.reportGrid)
	}
	return s.runner, nil
}

// reportGrid is the grid executor of the report runner: its cells run on
// runPool like any other. Failed cells travel in the results, where the
// runner names them; only a terminal condition (cancellation, a failed
// checkpoint flush) is returned as an error.
func (s *Sweep) reportGrid(ctx context.Context, cells []sim.Cell) ([]sim.Result, error) {
	res, err := s.runPool(ctx, cells, nil)
	if errors.Is(err, errCellsFailed) {
		err = nil
	}
	return res, err
}

// Snapshot returns every pooled (config, workload) run the sweep's reports
// have produced so far, sorted by (config, workload) — the payload behind
// cmd/experiments -json. Raw-grid runs (Run/Results) are not included;
// they are returned directly by those methods.
func (s *Sweep) Snapshot() []results.Run {
	s.mu.Lock()
	r := s.runner
	s.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.Snapshot()
}

// SimulatedUOps returns the total µ-ops simulated by this sweep so far
// (warmup included; checkpoint-cached and deduplicated cells excluded),
// across raw-grid runs and experiment reports — the numerator of
// throughput reporting.
func (s *Sweep) SimulatedUOps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulated
}
