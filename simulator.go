package specsched

import (
	"context"
	"time"

	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/results"
)

// Default simulation window (µ-ops). The paper simulates 50M warmup + 100M
// measured instructions per run; these defaults are scaled down ~1000x so
// an interactive run completes in well under a second.
const (
	DefaultWarmup  int64 = 10000
	DefaultMeasure int64 = 60000
)

// Simulator runs one workload on one machine configuration. Construct it
// with NewSimulator and functional options, then call Run; a Simulator is
// a reusable description, so calling Run again repeats the identical
// simulation from a fresh core.
type Simulator struct {
	preset   string
	workload Workload
	warmup   int64
	measure  int64
	seed     uint64
	seedSet  bool
}

// WithPreset selects the machine configuration by preset name (see the
// specsched/presets package). Default: the paper's central SpecSched_4.
func WithPreset(name string) Option {
	return simOptionFunc(func(s *Simulator) { s.preset = name })
}

// WithWorkload selects a Table 2 benchmark by name — shorthand for
// WithWorkloadSpec(WorkloadByName(name)).
func WithWorkload(name string) Option {
	return simOptionFunc(func(s *Simulator) { s.workload = WorkloadByName(name) })
}

// WithWorkloadSpec selects any workload: named, custom profile, or kernel.
func WithWorkloadSpec(w Workload) Option {
	return simOptionFunc(func(s *Simulator) { s.workload = w })
}

// WithSeed overrides the workload's RNG seed (named profiles default to
// their calibrated seed, kernels to a fixed one). Two runs of the same
// workload and seed are bit-identical; different seeds give decorrelated
// but statistically alike programs.
func WithSeed(seed uint64) Option {
	return simOptionFunc(func(s *Simulator) { s.seed, s.seedSet = seed, true })
}

// NewSimulator builds a simulator description. Options are validated at
// Run, so construction never fails.
func NewSimulator(opts ...Option) *Simulator {
	s := &Simulator{preset: "SpecSched_4", warmup: DefaultWarmup, measure: DefaultMeasure}
	for _, o := range opts {
		o.applySimulator(s)
	}
	return s
}

// Run executes the simulation: it builds a fresh core, commits the warmup
// window, then measures — through the same cell executor every sweep cell
// runs on, so a Simulator and a one-cell sweep fail and count alike. The
// returned Run carries the measurement window's counters and the
// wall-clock time of the whole run, core construction and warmup
// included, exactly as a sweep cell's Elapsed.
//
// Cancellation: the core polls ctx every few thousand simulated cycles;
// a canceled run returns promptly with an error matching ErrCanceled (and
// context.Canceled / context.DeadlineExceeded as appropriate).
func (s *Simulator) Run(ctx context.Context) (results.Run, error) {
	cfg, err := config.Preset(s.preset)
	if err != nil {
		return results.Run{}, wrapErr(ErrInvalidConfig, err)
	}
	if err := validateWindows(s.warmup, s.measure); err != nil {
		return results.Run{}, err
	}
	if s.workload.build == nil {
		return results.Run{}, wrapErrf(ErrUnknownWorkload,
			"specsched: no workload selected (use WithWorkload or WithWorkloadSpec)")
	}
	b, err := s.workload.build(s.seed, s.seedSet)
	if err != nil {
		return results.Run{}, err
	}
	b.Name = s.workload.name
	start := time.Now()
	r, err := sim.Run(ctx, cfg, b.Stream, s.warmup, s.measure)
	if err != nil {
		return results.Run{}, mapCellErr(err)
	}
	out := *r
	out.Elapsed = time.Since(start)
	return out, nil
}
