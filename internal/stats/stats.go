// Package stats collects and aggregates simulation statistics.
//
// A Run holds the raw event counters of one simulation (one workload × one
// configuration). Aggregation helpers implement the paper's reporting
// conventions: performance is normalized per-benchmark against a baseline
// run and averaged with the geometric mean (§5: "when averaging speedups,
// the geometric mean is used"), while µ-op counts are reported as fractions
// of the baseline's issued µ-ops (Fig. 4b, 5b, 7b, 8b).
package stats

import "specsched/results"

// Run holds the counters of a single simulation run. It is the public
// record itself: the simulator fills the same type the façade returns, so
// no conversion sits between a core's counters and a user's report.
type Run = results.Run

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
	row, wi := s.row(config), index(s.workloads, workload)
	if wi < 0 || wi >= len(row) {
		return nil
	}
	return row[wi]
}

// row returns config's runs by workload position (possibly short; nil
// entries are missing runs), or nil if the set has no run of config.
func (s *Set) row(config string) []*Run {
	if ci := index(s.configs, config); ci >= 0 {
		return s.runs[ci]
	}
	return nil
}

// Configs returns configs in insertion order. The slice is the set's own:
// callers must not modify it.
func (s *Set) Configs() []string { return s.configs[:len(s.configs):len(s.configs)] }

// Workloads returns workloads in order of first appearance. The slice is
// the set's own: callers must not modify it.
func (s *Set) Workloads() []string { return s.workloads[:len(s.workloads):len(s.workloads)] }

// GMeanSpeedup returns the geometric-mean speedup of config over baseCfg
// across all workloads present in both.
func (s *Set) GMeanSpeedup(config, baseCfg string) float64 {
	row, base := s.row(config), s.row(baseCfg)
	var xs []float64
	for wi := range min(len(row), len(base)) {
		if row[wi] != nil && base[wi] != nil {
			xs = append(xs, results.Speedup(row[wi], base[wi]))
		}
	}
	return results.GMean(xs)
}

// SumField sums fn over all workloads of a config.
func (s *Set) SumField(config string, fn func(*Run) int64) int64 {
	var total int64
	for _, r := range s.row(config) {
		if r != nil {
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
