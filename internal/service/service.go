// Package service is the engine behind specschedd, the sweep-serving
// daemon: a bounded job queue with per-client round-robin fairness, a
// dispatcher running a fixed number of sweeps at once, cross-job cell
// deduplication and result caching through a shared specsched.CellCache,
// and restart recovery — every job persists a manifest and a resume
// checkpoint under its state directory, so a killed daemon re-enqueues
// interrupted jobs and resumes them from checkpoint instead of
// recomputing, and restores finished jobs' cells from their checkpoints
// without running them.
//
// The package is deliberately a pure consumer of the public specsched
// façade: every sweep it runs goes through SweepSpec validation,
// NewSweepFromSpec, and Results(ctx), exactly like an external caller.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"specsched"
)

// ErrQueueFull rejects submissions when the queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("service: server is shutting down")

// ErrDraining rejects submissions after StartDrain: the daemon is shutting
// down gracefully and admits no new work (running sweeps finish or park).
var ErrDraining = errors.New("service: daemon is draining")

// ErrUnknownJob answers a lookup of a job ID the daemon does not hold:
// one it never saw, or a finished job it has since forgotten (evicted by
// the retention bound, or dropped by a DELETE).
var ErrUnknownJob = errors.New("service: unknown job")

// maxTerminalJobs bounds how many finished (done, failed or canceled) jobs
// the daemon keeps. Past it the oldest finished job is forgotten: dropped
// from the job table and, with a state directory, its manifest and
// checkpoint deleted. Without a bound the job table, and the daemon's
// heap with it, grows with every job ever served. A forgotten job's cells
// stay in the bounded cell cache, so resubmitting its spec is a cheap hit.
const maxTerminalJobs = 256

// errResultsLost fails a done job whose cells a restart cannot restore:
// its checkpoint is missing, unusable or short of the job's grid. The job
// is not run again behind the client's back.
var errResultsLost = errors.New("service: finished job's results lost")

// errShutdown is the cancellation cause used for daemon shutdown, so
// runJob can tell it apart from a client's cancel request.
var errShutdown = errors.New("service: daemon shutting down")

// Config parameterizes a Server. The zero value works: in-memory state
// (no recovery), a small queue, two concurrent sweeps.
type Config struct {
	// StateDir holds one manifest (<id>.job) and one resume checkpoint
	// (<id>.ckpt) per job. Empty disables persistence and recovery.
	StateDir string
	// MaxQueue bounds the number of queued (not yet running) jobs;
	// submissions beyond it fail with ErrQueueFull. 0 selects 64.
	MaxQueue int
	// MaxRunning is how many sweeps execute concurrently. 0 selects 2.
	MaxRunning int
	// CacheEntries bounds the shared cell cache (0 selects the
	// specsched.NewCellCache default).
	CacheEntries int
	// SweepJobs caps each sweep's worker count. A spec asking for more —
	// or for the default (0 = GOMAXPROCS) — is clamped to it, so one
	// greedy job cannot monopolize the machine. 0 leaves specs alone.
	SweepJobs int
	// MaxWorkers caps each job's subprocess worker count (the spec's
	// "workers" field): a spec asking for more is clamped. Results are
	// bit-identical at any clamp — worker placement never affects cell
	// outcomes — so clamping is a resource decision, not a semantic one.
	// 0 leaves specs alone; negative forces every job in-process
	// (workers = 0) regardless of what its spec asks.
	MaxWorkers int
	// Logf receives operational log lines. Nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Server owns the job table, the fair queue, and the dispatcher. Create
// one with New, expose it with Handler, stop it with Close.
type Server struct {
	cfg   Config
	cache *specsched.CellCache
	m     metrics
	logf  func(format string, args ...any)

	ctx      context.Context
	shutdown context.CancelCauseFunc
	wg       sync.WaitGroup
	wake     chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []*Job            // terminal jobs still held, oldest finish first
	queues   map[string][]*Job // per-client FIFO of queued jobs
	ring     []string          // round-robin order of clients ever enqueued
	rr       int               // next ring slot to serve
	queued   int
	running  int
	seq      uint64
	closed   bool
	draining bool
}

// New builds a server, recovers any persisted jobs from cfg.StateDir
// (interrupted jobs re-enqueue and resume from their checkpoints; the
// newest finished jobs come back finished, done ones with their cells
// restored from their checkpoints), and starts the dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 2
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    specsched.NewCellCache(cfg.CacheEntries),
		logf:     logf,
		ctx:      ctx,
		shutdown: cancel,
		wake:     make(chan struct{}, 1),
		jobs:     make(map[string]*Job),
		queues:   make(map[string][]*Job),
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			cancel(nil)
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
		if err := s.recover(); err != nil {
			cancel(nil)
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Cache exposes the shared cell cache (for stats).
func (s *Server) Cache() *specsched.CellCache { return s.cache }

// Submit validates the spec, enqueues a job for the given client, and
// returns it. Validation errors are the façade's typed sentinels
// (ErrInvalidConfig, ErrUnknownWorkload, ErrBadTrace) — the HTTP layer
// maps them to 400s. The daemon runs raw grids, so a spec without
// configurations is rejected here even though the façade accepts one.
func (s *Server) Submit(client string, spec specsched.SweepSpec) (*Job, error) {
	if len(spec.Configs) == 0 {
		return nil, fmt.Errorf("%w: a submitted sweep needs at least one configuration", specsched.ErrInvalidConfig)
	}
	if _, err := specsched.NewSweepFromSpec(spec); err != nil {
		return nil, err
	}
	if client == "" {
		client = "default"
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	seq := s.seq
	s.seq++
	id := s.jobIDLocked(seq, client, spec)
	j := newJob(id, client, seq, spec)
	s.jobs[id] = j
	s.enqueueLocked(j)
	s.mu.Unlock()
	s.persist(j)
	s.kick()
	return j, nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Cancel cancels a job: a queued one leaves the queue and finishes
// immediately; a running one has its sweep context canceled and finishes
// when the sweep unwinds (already-completed cells stay streamable).
// Terminal jobs are left alone.
func (s *Server) Cancel(j *Job) {
	s.mu.Lock()
	removed := s.removeQueuedLocked(j)
	s.mu.Unlock()
	if removed {
		s.finishJob(j, JobCanceled, specsched.ErrCanceled)
		return
	}
	j.requestCancel(specsched.ErrCanceled)
}

// Close stops accepting jobs, cancels running sweeps with a shutdown
// cause (their manifests keep state "running"/"queued" so a restart
// resumes them), and waits for the dispatcher and job goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.shutdown(errShutdown)
	s.kick()
	s.wg.Wait()
}

// StartDrain begins graceful shutdown: submissions are rejected with
// ErrDraining (503 + Retry-After on the wire), /readyz flips to 503 so
// load balancers stop routing, and the dispatcher starts no further jobs —
// queued jobs keep their manifests and re-enqueue on the next daemon.
// Running sweeps are untouched; pair with AwaitIdle to let them finish,
// then Close to park whatever remains (checkpoints make parked jobs
// resumable). Idempotent.
func (s *Server) StartDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.logf("drain: admitting no new jobs; waiting for running sweeps")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the daemon should receive traffic: constructed,
// not draining, not closed. The /readyz endpoint is its wire form.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.closed
}

// AwaitIdle blocks until no job is running (queued jobs do not count —
// during a drain they will never start) or ctx expires, returning the
// context error in the latter case.
func (s *Server) AwaitIdle(ctx context.Context) error {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		idle := s.running == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// QueueDepth returns how many jobs the given client currently has queued
// (the 429 error body reports it so clients can back off proportionally).
func (s *Server) QueueDepth(client string) int {
	if client == "" {
		client = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[client])
}

// kick nudges the dispatcher without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch is the scheduler loop: as long as a run slot is free it starts
// the next job the fairness policy picks, then sleeps until kicked.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.running < s.cfg.MaxRunning && !s.draining {
			j := s.nextLocked()
			if j == nil {
				break
			}
			s.running++
			s.wg.Add(1)
			go s.runJob(j)
		}
		s.mu.Unlock()
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// enqueueLocked appends the job to its client's FIFO, registering the
// client in the round-robin ring on first contact.
func (s *Server) enqueueLocked(j *Job) {
	if _, ok := s.queues[j.Client]; !ok {
		if !slices.Contains(s.ring, j.Client) {
			s.ring = append(s.ring, j.Client)
		}
	}
	s.queues[j.Client] = append(s.queues[j.Client], j)
	s.queued++
}

// nextLocked implements per-client round-robin: starting after the last
// served client, take the head of the first non-empty client queue. A
// client that floods the queue therefore only delays its own jobs — other
// clients' heads are served in between.
func (s *Server) nextLocked() *Job {
	n := len(s.ring)
	for i := 0; i < n; i++ {
		slot := (s.rr + i) % n
		client := s.ring[slot]
		q := s.queues[client]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		s.queues[client] = q[1:]
		s.queued--
		s.rr = (slot + 1) % n
		return j
	}
	return nil
}

// removeQueuedLocked pulls a still-queued job out of its client's FIFO;
// it reports false if the job already left the queue (running/terminal).
func (s *Server) removeQueuedLocked(j *Job) bool {
	q := s.queues[j.Client]
	for i, cand := range q {
		if cand == j {
			s.queues[j.Client] = append(q[:i:i], q[i+1:]...)
			s.queued--
			return true
		}
	}
	return false
}

// runJob drives one sweep end to end through the public façade.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.kick()
	}()

	ctx, cancel := context.WithCancelCause(s.ctx)
	defer cancel(nil)
	ok, cancelPending := j.start(cancel)
	if !ok {
		return
	}
	if cancelPending {
		// The DELETE raced the dispatcher: the request arrived after the
		// job left the queue but before the sweep context existed.
		cancel(specsched.ErrCanceled)
	}
	s.persist(j)

	sweep, err := s.newSweep(j)
	if err != nil {
		s.finishJob(j, JobFailed, err)
		return
	}
	j.setSweep(sweep)

	var terminal error
	for cell, cerr := range sweep.Results(ctx) {
		if cell.CellRef == (specsched.CellRef{}) && cerr != nil {
			terminal = cerr
			break
		}
		j.appendCell(cell)
	}
	switch {
	case terminal == nil:
		s.finishJob(j, JobDone, nil)
	case errors.Is(terminal, specsched.ErrCanceled) && j.cancelRequested():
		s.finishJob(j, JobCanceled, terminal)
	case errors.Is(terminal, specsched.ErrCanceled) && s.ctx.Err() != nil:
		// Daemon shutdown, not a job outcome: the manifest still says
		// "running", so the next daemon re-enqueues and resumes from the
		// checkpoint. Wake streamers so they observe the stall and bail.
		j.notifyAll()
	default:
		s.finishJob(j, JobFailed, terminal)
	}
}

// sweepSpec is the spec a job's sweep runs: the submitted one with the
// daemon's checkpoint path and its per-job jobs and workers clamps.
func (s *Server) sweepSpec(j *Job) specsched.SweepSpec {
	spec := j.Spec
	spec.Checkpoint = s.checkpointPath(j.ID) // daemon-owned; client paths are ignored
	if s.cfg.SweepJobs > 0 && (spec.Jobs <= 0 || spec.Jobs > s.cfg.SweepJobs) {
		spec.Jobs = s.cfg.SweepJobs
	}
	switch {
	case s.cfg.MaxWorkers < 0:
		spec.Workers = 0 // per-job isolation disabled daemon-wide
	case s.cfg.MaxWorkers > 0 && spec.Workers > s.cfg.MaxWorkers:
		spec.Workers = s.cfg.MaxWorkers
	}
	return spec
}

// newSweep builds a job's sweep on the shared cell cache, feeding the
// daemon's progress metrics and the job's cell total.
func (s *Server) newSweep(j *Job) (*specsched.Sweep, error) {
	return specsched.NewSweepFromSpec(s.sweepSpec(j),
		specsched.SweepCellCache(s.cache),
		specsched.SweepProgress(func(p specsched.Progress) {
			s.m.onProgress(p)
			j.noteTotal(p.Total)
		}),
	)
}

// restoreDone reloads a recovered done job's cells without simulating
// anything: its sweep streams under a context that is already canceled,
// so the pool serves the checkpointed cells, in the order they were
// recorded, and starts none. The failed cells come from the manifest,
// each back at its Index, so the log reads as it did before the restart.
// A checkpoint that is missing, unusable or short of the job's other
// cells fails the job with errResultsLost, which it returns. A restored
// job gets a fresh sweep for its reports.
func (s *Server) restoreDone(j *Job, m manifest) error {
	spec := s.sweepSpec(j)
	spec.Workers = 0 // no cell runs, so no worker process either
	sweep, err := specsched.NewSweepFromSpec(spec)
	var cells []specsched.Cell
	if err == nil {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for c, cerr := range sweep.Results(ctx) {
			if c.CellRef == (specsched.CellRef{}) {
				if !errors.Is(cerr, specsched.ErrCanceled) {
					err = cerr
				}
				break
			}
			cells = append(cells, c)
		}
	}
	j.total = m.Total
	switch {
	case err != nil: // the checkpoint is unusable
	case len(cells)+len(m.Failed) != m.Total:
		err = fmt.Errorf("checkpoint holds %d of the grid's %d cells and the manifest %d failed ones",
			len(cells), m.Total, len(m.Failed))
	default:
		sweep, err = s.newSweep(j)
	}
	if err != nil {
		j.state, j.err = JobFailed, fmt.Errorf("%w: %v", errResultsLost, err)
		s.persist(j)
		return j.err
	}
	log := make([]specsched.Cell, 0, m.Total)
	for _, rec := range m.Failed {
		k := max(0, min(rec.Index-len(log), len(cells)))
		log = append(log, cells[:k]...)
		cells = cells[k:]
		ref := specsched.CellRef{Config: rec.Config, Workload: rec.Workload, Seed: rec.Seed}
		log = append(log, specsched.Cell{CellRef: ref, Err: errors.New(rec.Error), Attempts: rec.Attempts})
	}
	for _, c := range append(log, cells...) {
		j.appendCell(c)
	}
	j.setSweep(sweep)
	return nil
}

// finishJob applies a terminal transition once, then records metrics and
// persists the final manifest.
func (s *Server) finishJob(j *Job, state JobState, err error) {
	if !j.finish(state, err) {
		return
	}
	var fr specsched.FailureReport
	if sweep := j.sweepRef(); sweep != nil {
		fr = sweep.FailureReport()
	}
	s.m.onJobFinish(state, fr)
	s.persist(j)
	if err != nil && state == JobFailed {
		s.logf("job %s failed: %v", j.ID, err)
	}
	// Retire only after the final persist, so no later write can recreate
	// the manifest of a job the bound has already forgotten. A DELETE that
	// forgot the job while it was finishing leaves only its files to drop.
	s.mu.Lock()
	drop := j
	if s.jobs[j.ID] == j {
		s.finished = append(s.finished, j)
		drop = nil
		if len(s.finished) > maxTerminalJobs {
			drop = s.finished[0]
			s.finished = slices.Delete(s.finished, 0, 1)
			delete(s.jobs, drop.ID)
			s.m.jobsForgotten.Add(1)
		}
	}
	s.mu.Unlock()
	if drop != nil {
		s.removeState(drop)
	}
}

// forget drops a finished job from the job table and deletes its state
// files (DELETE on a terminal job). It reports false if the job is still
// live or already forgotten.
func (s *Server) forget(j *Job) bool {
	if !j.State().Terminal() {
		return false
	}
	s.mu.Lock()
	if s.jobs[j.ID] != j {
		s.mu.Unlock()
		return false
	}
	delete(s.jobs, j.ID)
	if i := slices.Index(s.finished, j); i >= 0 {
		s.finished = slices.Delete(s.finished, i, i+1)
	}
	s.m.jobsForgotten.Add(1)
	s.mu.Unlock()
	s.removeState(j)
	return true
}

// removeState deletes a forgotten job's manifest and checkpoint.
func (s *Server) removeState(j *Job) {
	if s.cfg.StateDir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.gone = true
	for _, path := range []string{s.manifestPath(j.ID), s.checkpointPath(j.ID)} {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.logf("job %s: forget: %v", j.ID, err)
		}
	}
}

// manifest is the persisted form of a job: identity, submitted spec, last
// known state and grid size. It omits the cell log — cells that succeeded
// live in the checkpoint, which is the recovery source of truth — except
// the failed cells, which no checkpoint records.
type manifest struct {
	ID     string              `json:"id"`
	Client string              `json:"client"`
	Seq    uint64              `json:"seq"`
	State  JobState            `json:"state"`
	Error  string              `json:"error,omitempty"`
	Spec   specsched.SweepSpec `json:"spec"`
	Total  int                 `json:"total_cells,omitempty"`
	Failed []CellRecord        `json:"failed,omitempty"`
}

func (s *Server) manifestPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".job")
}

func (s *Server) checkpointPath(id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, id+".ckpt")
}

// persist writes the job's manifest atomically (temp file + rename).
// Best-effort: a write failure degrades recovery, not the job.
func (s *Server) persist(j *Job) {
	if s.cfg.StateDir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	if j.gone {
		return
	}
	j.mu.Lock()
	m := manifest{ID: j.ID, Client: j.Client, Seq: j.seq, State: j.state, Spec: j.Spec, Total: j.total}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	for _, c := range j.cells {
		if c.Error != "" {
			m.Failed = append(m.Failed, c)
		}
	}
	j.mu.Unlock()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		s.logf("job %s: manifest marshal: %v", j.ID, err)
		return
	}
	path := s.manifestPath(j.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		s.logf("job %s: manifest write: %v", j.ID, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.logf("job %s: manifest rename: %v", j.ID, err)
	}
}

// recover reloads persisted jobs. Interrupted jobs (queued or running at
// the time of death) re-enqueue, counting against MaxQueue, and resume
// from their checkpoints. Finished jobs never enter the queue: a done job
// comes back done with its cells restored from its checkpoint (or failed
// with errResultsLost when they cannot be), and failed and canceled jobs
// come back as they were. Only the newest maxTerminalJobs finished
// manifests (by submission order) come back: older ones are deleted
// first.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("service: recover: %w", err)
	}
	var live, terminal []*Job
	manifests := map[*Job]manifest{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job") {
			continue
		}
		path := filepath.Join(s.cfg.StateDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			s.logf("recover: %s: %v (skipped)", e.Name(), err)
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID == "" {
			s.logf("recover: %s: bad manifest (skipped)", e.Name())
			continue
		}
		j := newJob(m.ID, m.Client, m.Seq, m.Spec)
		if m.Seq >= s.seq {
			s.seq = m.Seq + 1
		}
		if !m.State.Terminal() {
			live = append(live, j)
			continue
		}
		manifests[j] = m
		j.state = m.State
		if m.Error != "" {
			j.err = errors.New(m.Error)
		}
		close(j.done)
		terminal = append(terminal, j)
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].seq < terminal[b].seq })
	if n := len(terminal) - maxTerminalJobs; n > 0 {
		for _, j := range terminal[:n] {
			s.removeState(j)
		}
		s.logf("recover: pruned %d finished job(s) beyond the newest %d", n, maxTerminalJobs)
		terminal = terminal[n:]
	}
	lost := 0
	for _, j := range terminal {
		if j.state == JobDone {
			if err := s.restoreDone(j, manifests[j]); err != nil {
				s.logf("recover: job %s: %v", j.ID, err)
				lost++
			}
		}
		s.jobs[j.ID] = j
		s.finished = append(s.finished, j)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	for _, j := range live {
		s.jobs[j.ID] = j
		s.enqueueLocked(j)
	}
	if len(s.jobs) > 0 {
		s.logf("recovered %d job(s): %d re-enqueued, %d done job(s) lost their results", len(s.jobs), len(live), lost)
	}
	return nil
}

// jobIDLocked derives a short collision-checked ID from the submission.
func (s *Server) jobIDLocked(seq uint64, client string, spec specsched.SweepSpec) string {
	raw, _ := json.Marshal(spec)
	for salt := uint64(0); ; salt++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d\x00%d\x00%s\x00", seq, salt, client)
		h.Write(raw)
		id := fmt.Sprintf("j%012x", h.Sum64()&0xffffffffffff)
		if _, taken := s.jobs[id]; !taken {
			return id
		}
	}
}
