package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"specsched"
)

// metrics is the daemon's hand-rolled Prometheus instrumentation: a fixed
// set of atomic counters rendered in the text exposition format (version
// 0.0.4) by render. No client library — the format is three line shapes
// (# HELP, # TYPE, name value) and the daemon needs nothing fancier.
type metrics struct {
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsForgotten atomic.Int64 // finished jobs evicted by the retention bound or deleted

	cellsCompleted  atomic.Int64 // cells finished across all jobs (any outcome)
	cellsFailed     atomic.Int64
	cellsCheckpoint atomic.Int64 // served from a job's resume checkpoint
	cellRetries     atomic.Int64 // extra attempts beyond each cell's first
	abandoned       atomic.Int64 // goroutines abandoned to timeouts/stalls

	workerRestarts  atomic.Int64 // subprocess workers respawned after a crash
	cellsReassigned atomic.Int64 // cell attempts lost to worker deaths, retried elsewhere
}

// onProgress folds one finished-cell progress event into the counters.
func (m *metrics) onProgress(p specsched.Progress) {
	m.cellsCompleted.Add(1)
	if p.Err != nil {
		m.cellsFailed.Add(1)
	}
	if p.Cached {
		m.cellsCheckpoint.Add(1)
	}
	if p.Attempts > 1 {
		m.cellRetries.Add(int64(p.Attempts - 1))
	}
}

// onJobFinish records a job's terminal state and its failure-report
// residuals that have no per-cell progress event.
func (m *metrics) onJobFinish(state JobState, fr specsched.FailureReport) {
	switch state {
	case JobDone:
		m.jobsDone.Add(1)
	case JobFailed:
		m.jobsFailed.Add(1)
	case JobCanceled:
		m.jobsCanceled.Add(1)
	}
	m.abandoned.Add(int64(fr.Abandoned))
	m.workerRestarts.Add(int64(fr.WorkerRestarts))
	m.cellsReassigned.Add(int64(fr.WorkerReassigned))
}

// gauges are the point-in-time values render needs from the server.
type gauges struct {
	queued, running int
	retained        int // jobs in the job table, live and finished
	ready           bool
	cache           specsched.CellCacheStats
}

// render writes the exposition text. Counter names follow the Prometheus
// conventions (unit suffix, _total for counters).
func (m *metrics) render(w io.Writer, g gauges) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("specschedd_jobs_queued", "Jobs waiting in the submission queue.", int64(g.queued))
	gauge("specschedd_jobs_running", "Jobs currently executing their sweep.", int64(g.running))
	counter("specschedd_jobs_completed_total", "Jobs that reached the done state.", m.jobsDone.Load())
	counter("specschedd_jobs_failed_total", "Jobs that reached the failed state.", m.jobsFailed.Load())
	counter("specschedd_jobs_canceled_total", "Jobs canceled by clients or shutdown.", m.jobsCanceled.Load())
	gauge("specschedd_jobs_retained", "Jobs held in the job table, live and finished.", int64(g.retained))
	counter("specschedd_jobs_forgotten_total", "Finished jobs dropped by the retention bound or a DELETE.", m.jobsForgotten.Load())
	counter("specschedd_cells_completed_total", "Sweep cells finished across all jobs (any outcome).", m.cellsCompleted.Load())
	counter("specschedd_cells_failed_total", "Sweep cells whose final outcome was an error.", m.cellsFailed.Load())
	counter("specschedd_cells_checkpoint_total", "Cells satisfied from a job's resume checkpoint.", m.cellsCheckpoint.Load())
	counter("specschedd_cells_simulated_total", "Cells actually simulated through the shared cell cache.", g.cache.Simulated)
	counter("specschedd_cells_deduped_total", "Cells that shared a concurrent job's in-flight simulation.", g.cache.Deduped)
	counter("specschedd_cells_cache_hits_total", "Cells served from the shared result cache's LRU.", g.cache.Hits)
	gauge("specschedd_cache_entries", "Cell results currently retained in the shared cache.", int64(g.cache.Entries))
	counter("specschedd_cell_retries_total", "Extra per-cell attempts spent on transient-failure retries.", m.cellRetries.Load())
	counter("specschedd_cells_abandoned_total", "Goroutines abandoned to timed-out or stalled cells.", m.abandoned.Load())
	counter("specschedd_worker_restarts_total", "Subprocess cell workers respawned after a crash.", m.workerRestarts.Load())
	counter("specschedd_cells_reassigned_total", "Cell attempts lost to worker deaths and reassigned via retry.", m.cellsReassigned.Load())
	ready := int64(0)
	if g.ready {
		ready = 1
	}
	gauge("specschedd_ready", "Whether the daemon admits new jobs (0 while draining).", ready)
}
