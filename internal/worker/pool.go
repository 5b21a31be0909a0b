package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"specsched/internal/sim"
	"specsched/internal/stats"
)

// Cosmetic argv[0] of worker processes, so `ps`/`pgrep -f` can find them
// (the CI chaos step kill -9s one by this name).
const workerArgv0 = "specsched-cell-worker"

// cancelGrace is how long a canceled cell's worker gets to acknowledge the
// cancel frame before being killed.
const cancelGrace = 2 * time.Second

// ErrWorkerCrashed marks a cell attempt lost to a worker-process death:
// non-zero exit, protocol EOF, or missed heartbeats. It classifies as
// transient (sim.Transient returns true), so the sim pool's existing retry
// machinery reassigns the cell to another worker — a crash looks exactly
// like a panicked in-process cell.
var ErrWorkerCrashed = errors.New("worker: cell worker crashed")

// ErrPoolDegraded reports a RunCell call that found every worker slot
// retired (restart budget exhausted) and no Fallback configured.
var ErrPoolDegraded = errors.New("worker: all worker slots retired")

// transientError opts its wrapped error into the sim pool's retry
// classification via the Transient() hook.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Options configures a supervisor Pool. The zero value is not usable —
// call NewPool, which applies the documented defaults.
type Options struct {
	// Workers is the number of worker processes (slots). Default 1.
	Workers int

	// BinPath is the worker binary — a program whose main calls
	// MaybeServe (specsched.MaybeWorker) before anything else. Default:
	// the current executable (re-exec).
	BinPath string

	// Warmup and Measure are the per-cell simulation windows, and Traces
	// the recorded workloads, exactly as LocalRunner takes them. Trace
	// refs are sent by path + content digest; workers load and verify the
	// file themselves.
	Warmup  int64
	Measure int64
	Traces  sim.TraceSet

	// BeatEvery is the heartbeat period workers are asked to emit during
	// a run (default 250ms). A run that goes max(20×BeatEvery, 5s) without
	// any frame from its worker is declared dead and killed.
	BeatEvery time.Duration

	// HelloTimeout bounds the startup handshake (default 10s). A binary
	// that never says hello — typically one missing the MaybeWorker hook
	// — is killed and counted as a crash.
	HelloTimeout time.Duration

	// RestartBudget is how many consecutive failed spawns/crashes one
	// slot tolerates before retiring (default 5; completing a cell resets
	// the count). Respawns back off exponentially from SpawnBackoff
	// (default 100ms) capped at MaxSpawnBackoff (default 5s).
	RestartBudget   int
	SpawnBackoff    time.Duration
	MaxSpawnBackoff time.Duration

	// Fallback, when non-nil, executes cells after every slot has retired
	// — graceful degradation to (typically) in-process execution instead
	// of failing the sweep. Deterministic results make the switch
	// invisible in the output.
	Fallback sim.CellRunner

	// Logf, when non-nil, receives supervisor lifecycle events (spawns,
	// crashes, retirements).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.BinPath == "" {
		bin, err := os.Executable()
		if err != nil {
			return opts, fmt.Errorf("worker: resolve current executable: %w", err)
		}
		opts.BinPath = bin
	}
	if opts.BeatEvery <= 0 {
		opts.BeatEvery = defaultBeatEvery
	}
	if opts.HelloTimeout <= 0 {
		opts.HelloTimeout = 10 * time.Second
	}
	if opts.RestartBudget <= 0 {
		opts.RestartBudget = 5
	}
	if opts.SpawnBackoff <= 0 {
		opts.SpawnBackoff = 100 * time.Millisecond
	}
	if opts.MaxSpawnBackoff <= 0 {
		opts.MaxSpawnBackoff = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts, nil
}

// Stats is a snapshot of supervisor counters.
type Stats struct {
	Spawns        int64 // worker processes started (including respawns)
	Restarts      int64 // respawns after a crash (Spawns minus first-time starts)
	Crashes       int64 // worker deaths observed (exit, EOF, missed heartbeats)
	Retired       int64 // slots that exhausted their restart budget
	Executed      int64 // cells completed by workers (success or cell error)
	Reassigned    int64 // cell attempts lost to a worker death (each is retried elsewhere)
	FallbackCells int64 // cells executed by the Fallback runner after degradation
}

// Pool is the supervisor half of the worker protocol: a bounded fleet of
// worker subprocesses behind the sim.CellRunner interface. Each slot runs
// a manage loop that spawns its process, performs the hello handshake,
// offers the process to RunCell callers, and respawns (capped exponential
// backoff, consecutive-crash budget) when it dies. A crash during a cell
// surfaces as an ErrWorkerCrashed transient error, so the sim pool retries
// — reassigning the cell to whichever worker is free next.
type Pool struct {
	opts Options

	idle     chan *proc
	closed   chan struct{}
	degraded chan struct{} // closed when every slot has retired

	wg sync.WaitGroup // slot manage goroutines

	mu      sync.Mutex
	procs   map[int]*proc // live processes by pid
	retired int           // slots out of budget

	spawns     atomic.Int64
	restarts   atomic.Int64
	crashes    atomic.Int64
	executed   atomic.Int64
	reassigned atomic.Int64
	fallback   atomic.Int64

	closeOnce sync.Once
}

// NewPool starts a supervisor with opts.Workers slots. Workers spawn
// asynchronously; RunCell blocks until one is ready (or degradation).
func NewPool(o Options) (*Pool, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{
		opts:     opts,
		idle:     make(chan *proc, opts.Workers),
		closed:   make(chan struct{}),
		degraded: make(chan struct{}),
		procs:    make(map[int]*proc),
	}
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.manageSlot(i)
	}
	return p, nil
}

// proc is one live worker process. The reaper goroutine owns the read
// side: it pumps frames into frames, and on any read error reaps the
// process, records waitErr, then closes frames and dead (in that order,
// so waitErr is safely readable after either close).
type proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	pid    int
	frames chan frame
	dead   chan struct{}

	waitErr error // valid after frames/dead close
	nextID  uint64
	cells   atomic.Int64 // cells completed by this process
}

func (w *proc) isDead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

func (w *proc) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

// manageSlot is one slot's lifecycle loop: spawn, handshake, offer to
// RunCell, wait for death, respawn under backoff — or retire after
// RestartBudget consecutive failures.
func (p *Pool) manageSlot(slot int) {
	defer p.wg.Done()
	failures := 0
	for {
		select {
		case <-p.closed:
			return
		default:
		}
		w, err := p.spawn()
		if err == nil {
			err = p.awaitHello(w)
		}
		if err != nil {
			failures++
			p.crashes.Add(1)
			p.opts.Logf("worker[slot %d]: start failed (%d/%d): %v", slot, failures, p.opts.RestartBudget, err)
			if failures >= p.opts.RestartBudget {
				p.retire(slot)
				return
			}
			if !p.backoff(failures) {
				return
			}
			p.restarts.Add(1)
			continue
		}

		// Healthy: offer to RunCell callers and wait for death.
		select {
		case p.idle <- w:
		case <-p.closed:
			p.reap(w)
			return
		}
		select {
		case <-w.dead:
		case <-p.closed:
			p.reap(w)
			return
		}

		p.forget(w)
		select {
		case <-p.closed:
			return
		default:
		}
		p.crashes.Add(1)
		if w.cells.Load() > 0 {
			failures = 1 // completing cells resets the consecutive-crash count
		} else {
			failures++
		}
		p.opts.Logf("worker[slot %d]: pid %d died (%v) after %d cells; crash %d/%d",
			slot, w.pid, w.waitErr, w.cells.Load(), failures, p.opts.RestartBudget)
		if failures >= p.opts.RestartBudget {
			p.retire(slot)
			return
		}
		if !p.backoff(failures) {
			return
		}
		p.restarts.Add(1)
	}
}

// backoff sleeps min(SpawnBackoff << (failures-1), MaxSpawnBackoff),
// returning false if the pool closed while waiting.
func (p *Pool) backoff(failures int) bool {
	d := p.opts.SpawnBackoff
	for i := 1; i < failures && d < p.opts.MaxSpawnBackoff; i++ {
		d *= 2
	}
	if d > p.opts.MaxSpawnBackoff {
		d = p.opts.MaxSpawnBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.closed:
		return false
	}
}

func (p *Pool) retire(slot int) {
	p.opts.Logf("worker[slot %d]: restart budget exhausted, retiring", slot)
	p.mu.Lock()
	p.retired++
	all := p.retired >= p.opts.Workers
	p.mu.Unlock()
	if all {
		close(p.degraded)
	}
}

// spawn starts one worker process (a re-exec of BinPath with the EnvWorker
// marker) and its reaper goroutine.
func (p *Pool) spawn() (*proc, error) {
	cmd := &exec.Cmd{
		Path:   p.opts.BinPath,
		Args:   []string{workerArgv0},
		Env:    append(os.Environ(), EnvWorker+"=1"),
		Stderr: os.Stderr,
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		return nil, fmt.Errorf("worker: spawn %s: %w", p.opts.BinPath, err)
	}
	p.spawns.Add(1)
	w := &proc{
		cmd:    cmd,
		stdin:  stdin,
		pid:    cmd.Process.Pid,
		frames: make(chan frame, 16),
		dead:   make(chan struct{}),
	}
	p.mu.Lock()
	p.procs[w.pid] = w
	p.mu.Unlock()
	go func() {
		for {
			var f frame
			if err := readFrame(stdout, &f); err != nil {
				break
			}
			select {
			case w.frames <- f:
			case <-p.closed:
				// Drain so the worker's writes don't wedge it open.
			}
		}
		w.waitErr = cmd.Wait()
		close(w.frames)
		close(w.dead)
	}()
	return w, nil
}

// awaitHello performs the startup handshake: first frame must be a
// version-matched hello within HelloTimeout. Failures kill the process.
func (p *Pool) awaitHello(w *proc) error {
	t := time.NewTimer(p.opts.HelloTimeout)
	defer t.Stop()
	select {
	case f, ok := <-w.frames:
		if !ok {
			return fmt.Errorf("worker: pid %d exited before hello (%v) — does the binary call specsched.MaybeWorker at the top of main?", w.pid, w.waitErr)
		}
		if f.Type != frameHello {
			w.kill()
			return fmt.Errorf("worker: pid %d sent %q before hello", w.pid, f.Type)
		}
		if f.Version != ProtocolVersion {
			w.kill()
			return fmt.Errorf("worker: pid %d speaks protocol v%d, supervisor speaks v%d", w.pid, f.Version, ProtocolVersion)
		}
		return nil
	case <-t.C:
		w.kill()
		return fmt.Errorf("worker: pid %d said nothing for %v — does the binary call specsched.MaybeWorker at the top of main?", w.pid, p.opts.HelloTimeout)
	case <-p.closed:
		w.kill()
		return errors.New("worker: pool closed during handshake")
	}
}

func (p *Pool) forget(w *proc) {
	p.mu.Lock()
	delete(p.procs, w.pid)
	p.mu.Unlock()
}

func (p *Pool) reap(w *proc) {
	w.stdin.Close()
	t := time.NewTimer(2 * time.Second)
	defer t.Stop()
	select {
	case <-w.dead:
	case <-t.C:
		w.kill()
		<-w.dead
	}
	p.forget(w)
}

// RunCell implements sim.CellRunner: it claims an idle worker, dispatches
// the cell, and relays heartbeats and the result. A worker death mid-cell
// returns an ErrWorkerCrashed transient error — the sim pool's retry
// machinery then reassigns the cell. After all slots retire, cells run on
// the Fallback runner (or fail with ErrPoolDegraded).
func (p *Pool) RunCell(ctx context.Context, cell sim.Cell, attempt int) (*stats.Run, error) {
	for {
		select {
		case w := <-p.idle:
			if w.isDead() {
				continue // stale: died while parked in the channel
			}
			run, err, reusable := p.runOn(ctx, w, cell, attempt)
			if reusable {
				select {
				case p.idle <- w:
				case <-p.closed:
					p.reap(w)
				}
			} else {
				w.kill() // manage loop sees dead and respawns
			}
			if err != nil && errors.Is(err, ErrWorkerCrashed) {
				p.reassigned.Add(1)
			}
			return run, err
		case <-p.degraded:
			if p.opts.Fallback != nil {
				p.fallback.Add(1)
				return p.opts.Fallback.RunCell(ctx, cell, attempt)
			}
			return nil, ErrPoolDegraded
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-p.closed:
			return nil, errors.New("worker: pool closed")
		}
	}
}

// runOn dispatches one cell to one worker and pumps its frames. Returns
// reusable=false when the process must not be offered again (it died, or
// was killed for missed heartbeats / ignored cancel).
func (p *Pool) runOn(ctx context.Context, w *proc, cell sim.Cell, attempt int) (run *stats.Run, err error, reusable bool) {
	w.nextID++
	id := w.nextID
	spec := &cellSpec{
		Config:       cell.Config,
		ConfigDigest: cell.Config.Digest(),
		Workload:     cell.Workload,
		SeedIdx:      cell.SeedIdx,
		Warmup:       p.opts.Warmup,
		Measure:      p.opts.Measure,
		Attempt:      attempt,
		BeatEveryMS:  int(p.opts.BeatEvery / time.Millisecond),
	}
	if ref, ok := p.opts.Traces[cell.Workload]; ok && ref.Path != "" {
		spec.TracePath = ref.Path
		spec.TraceDigest = ref.Header.Digest
	}
	if err := writeFrame(w.stdin, &frame{Type: frameRun, ID: id, Cell: spec}); err != nil {
		return nil, p.crashErr(w, fmt.Sprintf("dispatching %s", cell)), false
	}

	hb := sim.HeartbeatFrom(ctx)
	livenessTimeout := max(20*p.opts.BeatEvery, 5*time.Second)
	liveness := time.NewTimer(livenessTimeout)
	defer liveness.Stop()
	var cancelSent bool
	var grace <-chan time.Time
	done := ctx.Done()

	for {
		select {
		case f, ok := <-w.frames:
			if !ok {
				return nil, p.crashErr(w, fmt.Sprintf("running %s", cell)), false
			}
			if !liveness.Stop() {
				<-liveness.C
			}
			liveness.Reset(livenessTimeout)
			if f.ID != id {
				continue // stale frame from a previous cell on this worker
			}
			switch f.Type {
			case frameBeat:
				if hb != nil && f.Cycle >= 0 {
					hb.Store(f.Cycle)
				}
			case frameResult:
				w.cells.Add(1)
				p.executed.Add(1)
				if f.Error != "" {
					return nil, p.resultErr(ctx, f), true
				}
				if f.Run == nil {
					return nil, fmt.Errorf("worker: pid %d returned an empty result for %s", w.pid, cell), true
				}
				return f.Run, nil, true
			}
		case <-liveness.C:
			w.kill()
			<-w.dead
			return nil, &transientError{fmt.Errorf("%w: pid %d sent no frames for %v while running %s (killed)",
				ErrWorkerCrashed, w.pid, livenessTimeout, cell)}, false
		case <-done:
			if !cancelSent {
				cancelSent = true
				writeFrame(w.stdin, &frame{Type: frameCancel, ID: id})
				g := time.NewTimer(cancelGrace)
				defer g.Stop()
				grace = g.C
			}
			done = nil // keep pumping frames until ack, grace, or death
		case <-grace:
			w.kill()
			<-w.dead
			return nil, context.Cause(ctx), false
		}
	}
}

// crashErr waits for the dead process to be reaped and wraps its exit
// status as a transient ErrWorkerCrashed.
func (p *Pool) crashErr(w *proc, doing string) error {
	<-w.dead
	return &transientError{fmt.Errorf("%w: pid %d (%v) while %s", ErrWorkerCrashed, w.pid, w.waitErr, doing)}
}

// resultErr maps a wire error back into the supervisor's error space with
// its retry classification intact.
func (p *Pool) resultErr(ctx context.Context, f frame) error {
	switch f.Kind {
	case kindBadTrace:
		return fmt.Errorf("%w: %s", sim.ErrBadTrace, f.Error)
	case kindCanceled:
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return fmt.Errorf("worker: %s", f.Error)
	}
	return errors.New(f.Error)
}

// Close shuts the supervisor down: close every worker's stdin (orderly
// exit), kill stragglers, and wait for the slot manage loops. Callers
// must not have RunCell in flight (the sim pool guarantees this — Close
// is called after RunWith returns).
func (p *Pool) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	// Reap anything parked in idle; manage loops reap what they hold.
	for {
		select {
		case w := <-p.idle:
			p.reap(w)
			continue
		default:
		}
		break
	}
	p.wg.Wait()
	// Kill any remaining live processes (e.g. mid-handshake casualties).
	p.mu.Lock()
	rest := make([]*proc, 0, len(p.procs))
	for _, w := range p.procs {
		rest = append(rest, w)
	}
	p.mu.Unlock()
	for _, w := range rest {
		p.reap(w)
	}
	return nil
}

// Stats snapshots the supervisor counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	retired := int64(p.retired)
	p.mu.Unlock()
	return Stats{
		Spawns:        p.spawns.Load(),
		Restarts:      p.restarts.Load(),
		Crashes:       p.crashes.Load(),
		Retired:       retired,
		Executed:      p.executed.Load(),
		Reassigned:    p.reassigned.Load(),
		FallbackCells: p.fallback.Load(),
	}
}

// WorkerPIDs returns the pids of currently live worker processes — the
// hook chaos tests and the CI kill -9 step use to pick a victim.
func (p *Pool) WorkerPIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := make([]int, 0, len(p.procs))
	for pid := range p.procs {
		pids = append(pids, pid)
	}
	return pids
}

// Degraded reports whether every slot has retired (cells are running on
// the Fallback, or failing).
func (p *Pool) Degraded() bool {
	select {
	case <-p.degraded:
		return true
	default:
		return false
	}
}
