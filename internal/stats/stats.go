// Package stats collects and aggregates simulation statistics.
//
// A Run holds the raw event counters of one simulation (one workload × one
// configuration). Aggregation helpers implement the paper's reporting
// conventions: performance is normalized per-benchmark against a baseline
// run and averaged with the geometric mean (§5: "when averaging speedups,
// the geometric mean is used"), while µ-op counts are reported as fractions
// of the baseline's issued µ-ops (Fig. 4b, 5b, 7b, 8b).
package stats

import (
	"reflect"

	"specsched/results"
)

// Run holds the counters of a single simulation run.
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

	// Replay trigger events by cause.
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

	// Memory-order violations (loads squashed-refetched by older stores).
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

	// Simulator-throughput diagnostics of the event-driven scheduler:
	// SchedWakeups counts consumers flushed from wakeup lists and
	// SchedEvents counts timing-wheel entries that fired (completions,
	// valid register wakeups, replay detections). Both are zero under the
	// scan implementation — they describe the simulator, not the simulated
	// machine — so equivalence comparisons must mask them (see
	// MaskSchedulerCounters).
	SchedWakeups int64
	SchedEvents  int64

	// Quiescent-cycle skipping diagnostics (config.TimeSkip, event
	// scheduler only): SkippedCycles is how many of Cycles were jumped
	// over event-to-event without executing the pipeline loop, SkipSpans
	// how many contiguous jumps that took. Cycles already includes the
	// skipped cycles — skipping is unobservable in every architectural
	// counter — so these too are simulator-side and masked by
	// MaskSchedulerCounters.
	SkippedCycles int64
	SkipSpans     int64

	// Bitmap ready-selection diagnostics (event scheduler only):
	// SchedBitmapPicks counts candidates the bitmap pick loop consumed
	// (issued, re-parked, or budget-skipped) and SchedBitmapWords counts
	// occupancy words it scanned. Zero under the scan implementation;
	// simulator-side, so masked by MaskSchedulerCounters.
	SchedBitmapPicks int64
	SchedBitmapWords int64
}

// MaskSchedulerCounters returns a copy of r with the simulator-side
// scheduler diagnostics zeroed, leaving only architecturally meaningful
// counters — the form differential tests compare across scheduler
// implementations.
func (r *Run) MaskSchedulerCounters() Run {
	cp := *r
	cp.SchedWakeups = 0
	cp.SchedEvents = 0
	cp.SkippedCycles = 0
	cp.SkipSpans = 0
	cp.SchedBitmapPicks = 0
	cp.SchedBitmapWords = 0
	return cp
}

// Accumulate adds every counter of o into r — the pooling step that folds
// seed replicas of one (config, workload) cell into a single Run whose
// ratio statistics (IPC, miss rate, MPKI) become pooled-over-replicas
// values. It sums all int64 fields reflectively so future counters are
// pooled automatically; the identity fields (Workload, Config) are left
// untouched and must already agree.
func (r *Run) Accumulate(o *Run) {
	rv := reflect.ValueOf(r).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// WakeupsPerCycle returns average consumer wakeups per simulated cycle.
func (r *Run) WakeupsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.SchedWakeups) / float64(r.Cycles)
}

// EventsPerCycle returns average fired scheduler events per simulated cycle.
func (r *Run) EventsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.SchedEvents) / float64(r.Cycles)
}

// IPC returns committed µ-ops per cycle for the measurement window.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// Replayed returns the total number of replayed µ-ops.
func (r *Run) Replayed() int64 { return r.ReplayedMiss + r.ReplayedBank }

// MPKI returns branch mispredictions per kilo-committed-µ-op.
func (r *Run) MPKI() float64 {
	if r.Committed == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Committed)
}

// L1MissRate returns the fraction of executed loads that missed in the L1.
func (r *Run) L1MissRate() float64 {
	if acc := r.L1Hits + r.L1Misses; acc > 0 {
		return float64(r.L1Misses) / float64(acc)
	}
	return 0
}

// GMean returns the geometric mean of xs. Non-positive entries are skipped;
// an empty input yields 0.
func GMean(xs []float64) float64 { return results.GMean(xs) }

// Speedup returns r's IPC relative to base's IPC.
func Speedup(r, base *Run) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// Set is a collection of runs indexed by (config, workload). Names resolve
// to dense indices by a linear scan — sets hold at most a few dozen
// configs and workloads, where a scan beats hashing and needs no maps —
// and runs live in one slice per config, indexed by workload.
type Set struct {
	configs   []string // insertion order
	workloads []string // order of first appearance
	runs      [][]*Run // [config index][workload index], rows may be short
}

// NewSet returns an empty run set.
func NewSet() *Set { return &Set{} }

// NewSetSize returns an empty run set with room for configs × workloads
// runs, so filling it allocates one row per config and nothing more.
func NewSetSize(configs, workloads int) *Set {
	return &Set{
		configs:   make([]string, 0, configs),
		workloads: make([]string, 0, workloads),
		runs:      make([][]*Run, 0, configs),
	}
}

// Add inserts a run, replacing any previous run for the same key.
func (s *Set) Add(r *Run) {
	ci := index(s.configs, r.Config)
	if ci < 0 {
		ci = len(s.configs)
		s.configs = append(s.configs, r.Config)
		s.runs = append(s.runs, make([]*Run, 0, cap(s.workloads)))
	}
	wi := index(s.workloads, r.Workload)
	if wi < 0 {
		wi = len(s.workloads)
		s.workloads = append(s.workloads, r.Workload)
	}
	row := s.runs[ci]
	for len(row) <= wi {
		row = append(row, nil)
	}
	row[wi] = r
	s.runs[ci] = row
}

// index returns the position of name in names, or -1.
func index(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// Get returns the run for (config, workload), or nil.
func (s *Set) Get(config, workload string) *Run {
	return s.At(s.ConfigIndex(config), index(s.workloads, workload))
}

// ConfigIndex returns config's dense index for At, or -1 if the set has no
// run of it.
func (s *Set) ConfigIndex(config string) int { return index(s.configs, config) }

// At returns the run of config index ci (see ConfigIndex) on workload
// index wi (its position in Workloads), or nil.
func (s *Set) At(ci, wi int) *Run {
	if ci < 0 || ci >= len(s.runs) || wi < 0 || wi >= len(s.runs[ci]) {
		return nil
	}
	return s.runs[ci][wi]
}

// Configs returns configs in insertion order. The slice is the set's own:
// callers must not modify it.
func (s *Set) Configs() []string { return s.configs[:len(s.configs):len(s.configs)] }

// Workloads returns workloads in order of first appearance; At's workload
// indices are positions in it. The slice is the set's own: callers must
// not modify it.
func (s *Set) Workloads() []string { return s.workloads[:len(s.workloads):len(s.workloads)] }

// GMeanSpeedup returns the geometric-mean speedup of config over baseCfg
// across all workloads present in both.
func (s *Set) GMeanSpeedup(config, baseCfg string) float64 {
	ci, bi := s.ConfigIndex(config), s.ConfigIndex(baseCfg)
	var buf [64]float64
	xs := buf[:0]
	for wi := range s.workloads {
		r, b := s.At(ci, wi), s.At(bi, wi)
		if r != nil && b != nil {
			xs = append(xs, Speedup(r, b))
		}
	}
	return GMean(xs)
}

// SumField sums fn over all workloads of a config.
func (s *Set) SumField(config string, fn func(*Run) int64) int64 {
	ci := s.ConfigIndex(config)
	var total int64
	for wi := range s.workloads {
		if r := s.At(ci, wi); r != nil {
			total += fn(r)
		}
	}
	return total
}

// ReductionVs returns 1 - sum(fn over config)/sum(fn over baseCfg), i.e. the
// aggregate fractional reduction of a counter relative to a baseline config.
func (s *Set) ReductionVs(config, baseCfg string, fn func(*Run) int64) float64 {
	b := s.SumField(baseCfg, fn)
	if b == 0 {
		return 0
	}
	return 1 - float64(s.SumField(config, fn))/float64(b)
}

// Table is the fixed-width report table, now maintained in the public
// specsched/results package (the façade exposes it to embedders); these
// aliases keep the historical internal spelling working.
type Table = results.Table

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return results.NewTable(title, header...)
}
