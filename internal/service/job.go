package service

import (
	"sync"

	"specsched"
	"specsched/results"
)

// JobState is the lifecycle of one submitted sweep. Transitions are
// queued → running → (done | failed | canceled); a queued job may also
// jump straight to canceled. The terminal states never change again —
// a daemon restart re-enqueues interrupted (queued/running) jobs only.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// CellRecord is the wire form of one finished sweep cell, in the order the
// job completed them. Index is the record's position in the job's cell log
// and doubles as the resume cursor for GET /v1/sweeps/{id}/cells?after=N.
type CellRecord struct {
	Index    int          `json:"index"`
	Config   string       `json:"config"`
	Workload string       `json:"workload"`
	Seed     int          `json:"seed"`
	Run      *results.Run `json:"run,omitempty"`
	Error    string       `json:"error,omitempty"`
	Cached   bool         `json:"cached,omitempty"`
	Deduped  bool         `json:"deduped,omitempty"`
	Attempts int          `json:"attempts,omitempty"`
}

// CellFailure is the wire form of one entry of a sweep's failure report.
type CellFailure struct {
	Config    string `json:"config"`
	Workload  string `json:"workload"`
	Seed      int    `json:"seed"`
	Error     string `json:"error"`
	Attempts  int    `json:"attempts"`
	Transient bool   `json:"transient,omitempty"`
}

// FailureSummary is the wire form of specsched.FailureReport.
type FailureSummary struct {
	Failed            []CellFailure `json:"failed,omitempty"`
	Recovered         int           `json:"recovered,omitempty"`
	Retries           int           `json:"retries,omitempty"`
	Abandoned         int           `json:"abandoned,omitempty"`
	CheckpointSalvage string        `json:"checkpoint_salvage,omitempty"`
	WorkerRestarts    int           `json:"worker_restarts,omitempty"`
	WorkerReassigned  int           `json:"worker_reassigned,omitempty"`
}

// JobStatus is the status-endpoint response.
type JobStatus struct {
	ID           string               `json:"id"`
	Client       string               `json:"client"`
	State        JobState             `json:"state"`
	TotalCells   int                  `json:"total_cells"`
	DoneCells    int                  `json:"done_cells"`
	FailedCells  int                  `json:"failed_cells"`
	CachedCells  int                  `json:"cached_cells"`
	DedupedCells int                  `json:"deduped_cells"`
	Error        string               `json:"error,omitempty"`
	Failures     *FailureSummary      `json:"failures,omitempty"`
	Reports      []string             `json:"reports,omitempty"`
	Spec         *specsched.SweepSpec `json:"spec,omitempty"`
}

// Job is one submitted sweep: the spec as the client sent it, a
// completion-ordered log of finished cells, and the state machine above.
// All mutable fields are guarded by mu; the identity fields are immutable
// after construction.
type Job struct {
	ID     string
	Client string
	Spec   specsched.SweepSpec
	seq    uint64

	mu        sync.Mutex
	state     JobState
	cells     []CellRecord
	total     int
	failed    int
	cached    int
	deduped   int
	err       error
	sweep     *specsched.Sweep // set once running; source of FailureReport and Report
	cancel    func(error)      // cancels the running sweep's context
	cancelReq bool
	waiters   []chan struct{}
	done      chan struct{}
}

func newJob(id, client string, seq uint64, spec specsched.SweepSpec) *Job {
	return &Job{
		ID:     id,
		Client: client,
		Spec:   spec,
		seq:    seq,
		state:  JobQueued,
		done:   make(chan struct{}),
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start moves a queued job to running and installs the sweep's cancel
// function. It reports false if the job was canceled before it could start,
// and true with the pre-start cancel request flag otherwise (the caller
// must honor a pending request by canceling immediately — the request
// arrived before cancel was installed).
func (j *Job) start(cancel func(error)) (ok, cancelPending bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false, false
	}
	j.state = JobRunning
	j.cancel = cancel
	return true, j.cancelReq
}

// requestCancel marks the job as client-canceled and cancels its sweep if
// one is running. Queued jobs are finished by the server (which also owns
// the queue they sit in); this only flags and fires.
func (j *Job) requestCancel(cause error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cancelReq = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(cause)
	}
}

// cancelRequested reports whether a client asked for cancellation.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}

// setSweep publishes the constructed sweep for status/report queries.
func (j *Job) setSweep(s *specsched.Sweep) {
	j.mu.Lock()
	j.sweep = s
	j.mu.Unlock()
}

func (j *Job) sweepRef() *specsched.Sweep {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sweep
}

// noteTotal records the grid size, learned from the first progress event.
func (j *Job) noteTotal(total int) {
	j.mu.Lock()
	j.total = total
	j.mu.Unlock()
}

// appendCell adds one finished cell to the log and wakes streamers.
func (j *Job) appendCell(c specsched.Cell) {
	rec := CellRecord{
		Config:   c.Config,
		Workload: c.Workload,
		Seed:     c.Seed,
		Cached:   c.Cached,
		Deduped:  c.Deduped,
		Attempts: c.Attempts,
	}
	if c.Err != nil {
		rec.Error = c.Err.Error()
	} else {
		run := c.Run
		rec.Run = &run
	}
	j.mu.Lock()
	rec.Index = len(j.cells)
	j.cells = append(j.cells, rec)
	if c.Err != nil {
		j.failed++
	}
	if c.Cached {
		j.cached++
	}
	if c.Deduped {
		j.deduped++
	}
	j.notifyLocked()
	j.mu.Unlock()
}

// cellsFrom returns a copy of the cell log from index n on, the current
// state, and — iff nothing new is available and the job is still live — a
// channel that closes when either changes. Streamers loop on it.
func (j *Job) cellsFrom(n int) ([]CellRecord, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 0 {
		n = 0
	}
	var out []CellRecord
	if n < len(j.cells) {
		out = append(out, j.cells[n:]...)
	}
	var ch chan struct{}
	if len(out) == 0 && !j.state.Terminal() {
		ch = make(chan struct{})
		j.waiters = append(j.waiters, ch)
	}
	return out, j.state, ch
}

func (j *Job) notifyLocked() {
	for _, ch := range j.waiters {
		close(ch)
	}
	j.waiters = nil
}

// notifyAll wakes streamers without changing state (daemon shutdown: the
// job stays "running" on disk so a restart resumes it).
func (j *Job) notifyAll() {
	j.mu.Lock()
	j.notifyLocked()
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once; it reports
// whether this call was the one that did it.
func (j *Job) finish(state JobState, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	if err != nil && state != JobDone {
		j.err = err
	}
	close(j.done)
	j.notifyLocked()
	return true
}

// Status snapshots the job for the status endpoint. For live jobs it calls
// the sweep's FailureReport concurrently with the sweep's own execution —
// exactly the concurrent use the façade documents as safe.
func (j *Job) Status(includeSpec bool) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:           j.ID,
		Client:       j.Client,
		State:        j.state,
		TotalCells:   j.total,
		DoneCells:    len(j.cells),
		FailedCells:  j.failed,
		CachedCells:  j.cached,
		DedupedCells: j.deduped,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	sweep := j.sweep
	if includeSpec {
		spec := j.Spec
		st.Spec = &spec
	}
	j.mu.Unlock()

	if sweep != nil {
		fr := sweep.FailureReport()
		if fr.Retries != 0 || fr.Recovered != 0 || fr.Abandoned != 0 ||
			fr.CheckpointSalvage != "" || len(fr.Failed) != 0 ||
			fr.WorkerRestarts != 0 || fr.WorkerReassigned != 0 {
			fs := &FailureSummary{
				Recovered:         fr.Recovered,
				Retries:           fr.Retries,
				Abandoned:         fr.Abandoned,
				CheckpointSalvage: fr.CheckpointSalvage,
				WorkerRestarts:    fr.WorkerRestarts,
				WorkerReassigned:  fr.WorkerReassigned,
			}
			for _, f := range fr.Failed {
				fs.Failed = append(fs.Failed, CellFailure{
					Config:    f.Cell.Config,
					Workload:  f.Cell.Workload,
					Seed:      f.Cell.Seed,
					Error:     f.Err.Error(),
					Attempts:  f.Attempts,
					Transient: f.Transient,
				})
			}
			st.Failures = fs
		}
	}
	if st.State == JobDone {
		st.Reports = specsched.Reports()
	}
	return st
}
