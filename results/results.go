// Package results holds the typed outcome of specsched simulations: the
// per-run counter record (Run) with the paper's derived metrics, plus the
// aggregation and formatting helpers (geometric-mean speedups, fixed-width
// report tables) used to reproduce the paper's reporting conventions.
//
// The package is pure data — it imports nothing from the simulator — so it
// can be depended on by any consumer of specsched results without pulling
// in the simulation engine.
package results

import (
	"math"
	"reflect"
	"time"
)

// Run holds the counters of a single simulation run (one workload on one
// configuration). All counters describe the measurement window only;
// warmup µ-ops are excluded.
type Run struct {
	Workload string
	Config   string

	// Cycles is the number of simulated cycles in the measurement window.
	Cycles int64
	// Committed is the number of correct-path µ-ops retired.
	Committed int64

	// Issued is the total number of issue events, including re-issues of
	// replayed µ-ops and wrong-path issues.
	Issued int64
	// Unique is the number of distinct µ-ops issued at least once
	// (correct or wrong path) — the paper's "Unique" category.
	Unique int64
	// ReplayedMiss counts µ-ops squashed and re-issued because of an L1
	// load miss that was speculatively scheduled as a hit ("RpldMiss").
	ReplayedMiss int64
	// ReplayedBank counts µ-ops squashed and re-issued because of an L1
	// bank conflict ("RpldBank").
	ReplayedBank int64

	// MissReplayEvents and BankReplayEvents count replay trigger events
	// by cause (each event squashes a group of µ-ops).
	MissReplayEvents int64
	BankReplayEvents int64

	// Loads committed, L1 load hits/misses, and bank-conflict-delayed
	// loads observed at execute (correct path and wrong path alike).
	Loads         int64
	L1Hits        int64
	L1Misses      int64
	BankConflicts int64

	// Branch predictor performance.
	Branches    int64
	Mispredicts int64

	// MemOrderViolations counts loads squashed-refetched by older stores.
	MemOrderViolations int64
	// LateOperands counts µ-ops reaching Execute before a source was on
	// the bypass — a model-consistency diagnostic that should stay ~0.
	LateOperands int64

	// Scheduler occupancy sampling (sum over cycles, for averages).
	IQOccupancySum  int64
	ROBOccupancySum int64

	// Hit/miss arbitration outcomes: how many loads were allowed to wake
	// dependents speculatively vs. forced to wait for the hit signal.
	LoadsSpecWakeup    int64
	LoadsDelayedWakeup int64

	// Simulator-side diagnostics of the event-driven scheduler
	// implementation (zero under the scan implementation and
	// architecturally meaningless, so masked by MaskSchedulerCounters):
	// wakeup-list flushes, timing-wheel events, and quiescent-cycle
	// skipping activity. Cycles already includes the skipped cycles.
	SchedWakeups  int64
	SchedEvents   int64
	SkippedCycles int64
	SkipSpans     int64

	// Bitmap ready-selection diagnostics (the event scheduler's ready
	// queue): candidates consumed by the bitmap pick loop and occupancy
	// words scanned. Zero under the scan implementation; masked by
	// MaskSchedulerCounters.
	SchedBitmapPicks int64
	SchedBitmapWords int64

	// Elapsed is the wall-clock time spent simulating the whole run — core
	// construction, warmup and measurement — alike for Simulator runs and
	// sweep cells. Zero for checkpoint-cached sweep cells and in the
	// simulator's own records (checkpoints, worker frames), where
	// omitempty keeps it off the wire.
	Elapsed time.Duration `json:",omitempty"`
}

// MaskSchedulerCounters returns a copy of r with the simulator-side
// scheduler diagnostics and the wall-clock Elapsed zeroed, leaving only
// architecturally meaningful counters — the form differential tests
// compare across scheduler implementations.
func (r *Run) MaskSchedulerCounters() Run {
	cp := *r
	cp.SchedWakeups = 0
	cp.SchedEvents = 0
	cp.SkippedCycles = 0
	cp.SkipSpans = 0
	cp.SchedBitmapPicks = 0
	cp.SchedBitmapWords = 0
	cp.Elapsed = 0
	return cp
}

// IPC returns committed µ-ops per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Replayed returns the total number of replayed µ-ops.
func (r *Run) Replayed() int64 { return r.ReplayedMiss + r.ReplayedBank }

// MPKI returns branch mispredictions per 1000 committed µ-ops.
func (r *Run) MPKI() float64 {
	if r.Committed == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Committed)
}

// L1MissRate returns the L1 load miss ratio.
func (r *Run) L1MissRate() float64 {
	if r.L1Hits+r.L1Misses == 0 {
		return 0
	}
	return float64(r.L1Misses) / float64(r.L1Hits+r.L1Misses)
}

// Accumulate adds every int64 counter of o into r — the pooling step that
// folds seed replicas of one (config, workload) cell into a single Run
// whose ratio statistics (IPC, miss rate, MPKI) become pooled-over-replicas
// values. Elapsed durations are summed too; the identity fields (Workload,
// Config) are left untouched and must already agree.
func (r *Run) Accumulate(o *Run) {
	rv := reflect.ValueOf(r).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// Speedup returns r's performance relative to base (IPC ratio): >1 is
// faster. It is the paper's per-benchmark normalization.
func Speedup(r, base *Run) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// GMean returns the geometric mean of xs, ignoring non-positive values
// (the paper: "when averaging speedups, the geometric mean is used").
func GMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
