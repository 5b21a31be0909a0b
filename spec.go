package specsched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"specsched/internal/config"
	"specsched/internal/traceio"
)

// Duration is a time.Duration that marshals to JSON as a human-readable
// duration string ("250ms", "1m30s") and unmarshals from either that form
// or a bare number of nanoseconds — the wire representation every duration
// field of SweepSpec uses.
type Duration time.Duration

// MarshalJSON renders the duration in time.Duration.String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string ("30s") or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v interface{}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("specsched: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
		return nil
	}
	return wrapErrf(ErrInvalidConfig, "specsched: bad duration %s (want string or nanoseconds)", b)
}

func (d Duration) String() string { return time.Duration(d).String() }

// SweepSpec is the declarative, JSON-round-trippable description of a
// Sweep: every SweepOption axis as plain data. It is the wire format of
// the specschedd daemon (POST /v1/sweeps), the payload of the -spec CLI
// flags, and the library's NewSweepFromSpec input, so one description
// drives all three.
//
// Zero/omitted fields take the same defaults NewSweep applies: nil Warmup
// and Measure select DefaultWarmup/DefaultMeasure, Seeds <= 0 selects one
// replica. NewSweepFromSpec(s).Spec() returns s with those defaults made
// explicit; for a spec that already states them the round trip is the
// identity (see testdata/sweepspec.json for a fully explicit sample).
//
// Every cell runs its configuration preset as resolved: the event-driven
// scheduler with quiescent-cycle skipping. The scan scheduler and the
// per-cycle stepping mode are internal differential-testing oracles.
type SweepSpec struct {
	// Configs names the configuration presets of the grid. Required for
	// Run/Results (and by the daemon); Report-only sweeps may omit it
	// (each experiment prescribes its own configurations).
	Configs []string `json:"configs,omitempty"`
	// Workloads restricts the workload axis (default: the full Table 2
	// suite, or the traces alone when only Traces is set). A name must be
	// a Table 2 benchmark or the stem of a listed trace.
	Workloads []string `json:"workloads,omitempty"`
	// Traces lists recorded µ-op trace files joining the workload axis,
	// each named by its file stem (see SweepTraces).
	Traces []string `json:"traces,omitempty"`
	// Seeds is the number of seed replicas per (config, workload) cell
	// (<= 0 selects 1, the calibrated profile seed).
	Seeds int `json:"seeds,omitempty"`
	// Jobs bounds the worker goroutines (0 = GOMAXPROCS).
	Jobs int `json:"jobs,omitempty"`
	// Workers executes cells in that many supervised worker subprocesses
	// instead of in-process goroutines (0 = in-process; see SweepWorkers).
	// Results are bit-identical either way. The host binary must call
	// MaybeWorker at the top of main.
	Workers int `json:"workers,omitempty"`
	// Warmup and Measure are the per-cell simulation windows in µ-ops
	// (nil = DefaultWarmup / DefaultMeasure; an explicit 0 warmup is
	// honored, an explicit non-positive measure is invalid).
	Warmup  *int64 `json:"warmup_uops,omitempty"`
	Measure *int64 `json:"measure_uops,omitempty"`
	// Checkpoint names the resumable checkpoint file ("" = none). The
	// specschedd daemon overrides it with a per-job path it owns.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CellTimeout bounds one cell's wall clock (0 = unbounded).
	CellTimeout Duration `json:"cell_timeout,omitempty"`
	// StallTimeout arms the per-cell stall watchdog (0 = disabled).
	StallTimeout Duration `json:"stall_timeout,omitempty"`
	// Retries is the attempt budget per cell (1 = no retries; 0 = the
	// default: 1 in-process, 3 with Workers > 0 so a crashed worker's cell
	// is reassigned).
	Retries int `json:"retries,omitempty"`
	// RetryBackoff and MaxRetryBackoff shape the retry delays (see
	// SweepRetryBackoff).
	RetryBackoff    Duration `json:"retry_backoff,omitempty"`
	MaxRetryBackoff Duration `json:"max_retry_backoff,omitempty"`
	// AbandonBudget bounds goroutines abandoned to timeouts/stalls
	// (0 = 2× workers; negative = unlimited).
	AbandonBudget int `json:"abandon_budget,omitempty"`
	// Chaos, when non-nil, injects the deterministic fault plan into
	// every cell (testing only; see SweepChaos).
	Chaos *Chaos `json:"chaos,omitempty"`
}

// DecodeSweepSpec reads one JSON SweepSpec from r, strictly: an unknown
// field (a misspelled axis such as "measure" for "measure_uops") or
// anything but whitespace after the object is rejected, instead of
// silently sweeping the defaults. Decoding errors match ErrInvalidConfig.
// Every SweepSpec reader — the -spec CLI flags and the specschedd daemon —
// decodes through it, so a file one accepts the others accept too.
func DecodeSweepSpec(r io.Reader) (SweepSpec, error) {
	var spec SweepSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return SweepSpec{}, wrapErrf(ErrInvalidConfig, "specsched: decode SweepSpec: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return SweepSpec{}, wrapErrf(ErrInvalidConfig, "specsched: trailing data after SweepSpec")
	}
	return spec, nil
}

// validate is the construction-time validation behind NewSweep and
// NewSweepFromSpec: every named configuration must resolve, every workload
// must be a Table 2 benchmark or the stem of a listed trace, every trace
// header must parse, and every numeric range must make sense. Violations
// surface as the package's typed sentinels (ErrInvalidConfig,
// ErrUnknownWorkload, ErrBadTrace), so a daemon can reject a bad spec at
// submission instead of queueing a job that cannot run.
func (s SweepSpec) validate() error {
	for _, cn := range s.Configs {
		if _, err := config.Preset(cn); err != nil {
			return wrapErr(ErrInvalidConfig, err)
		}
	}
	traceNames := make(map[string]string, len(s.Traces))
	for _, path := range s.Traces {
		if _, err := ReadTraceInfo(path); err != nil {
			return err
		}
		name := traceio.WorkloadName(path)
		if prev, dup := traceNames[name]; dup {
			return wrapErrf(ErrInvalidConfig,
				"specsched: traces %s and %s both name workload %q", prev, path, name)
		}
		traceNames[name] = path
	}
	for _, wl := range s.Workloads {
		if _, ok := traceNames[wl]; ok {
			continue
		}
		if err := validateWorkloads([]string{wl}); err != nil {
			return err
		}
	}
	if s.Seeds < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative seed count %d", s.Seeds)
	}
	if s.Jobs < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative job count %d", s.Jobs)
	}
	if s.Workers < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative worker count %d", s.Workers)
	}
	if s.Retries < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative retry budget %d", s.Retries)
	}
	if s.Warmup != nil && *s.Warmup < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative warmup window %d", *s.Warmup)
	}
	if s.Measure != nil && *s.Measure <= 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: non-positive measurement window %d", *s.Measure)
	}
	for _, d := range []struct {
		name string
		d    Duration
	}{
		{"cell_timeout", s.CellTimeout},
		{"stall_timeout", s.StallTimeout},
		{"retry_backoff", s.RetryBackoff},
		{"max_retry_backoff", s.MaxRetryBackoff},
	} {
		if d.d < 0 {
			return wrapErrf(ErrInvalidConfig, "specsched: negative %s %s", d.name, d.d)
		}
	}
	if c := s.Chaos; c != nil {
		for _, r := range []struct {
			name string
			rate float64
		}{
			{"panic_rate", c.PanicRate}, {"hang_rate", c.HangRate},
			{"transient_rate", c.TransientRate}, {"corrupt_trace_rate", c.CorruptTraceRate},
			{"torn_write_rate", c.TornWriteRate},
		} {
			if r.rate < 0 || r.rate > 1 {
				return wrapErrf(ErrInvalidConfig, "specsched: chaos %s %v out of range [0,1]", r.name, r.rate)
			}
		}
	}
	return nil
}

// NewSweepFromSpec builds a sweep from its declarative description,
// validating it up front: unknown configurations and invalid ranges
// surface as ErrInvalidConfig, unknown workloads as ErrUnknownWorkload,
// unreadable trace files as ErrBadTrace. The inverse is (*Sweep).Spec.
//
// Options not expressible in the wire form — callbacks (SweepProgress) and
// shared in-process state (SweepCellCache) — may be passed as trailing
// opts; they apply over the spec before it is validated.
func NewSweepFromSpec(spec SweepSpec, opts ...SweepOption) (*Sweep, error) {
	s := newSweep(spec, opts)
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// Spec returns the sweep's declarative description — the exact inverse of
// NewSweepFromSpec, with the construction defaults (window sizes, seed
// count) made explicit. A Sweep's options are immutable after
// construction, so Spec may be called at any time, concurrently with a
// running sweep.
func (s *Sweep) Spec() SweepSpec { return s.spec.clone() }

// clone deep-copies the spec, so a Sweep shares no slice or pointer with
// the spec it was built from or the specs it hands out. Empty lists come
// back nil, as a JSON round trip returns them.
func (s SweepSpec) clone() SweepSpec {
	s.Configs = append([]string(nil), s.Configs...)
	s.Workloads = append([]string(nil), s.Workloads...)
	s.Traces = append([]string(nil), s.Traces...)
	s.Warmup = clonePtr(s.Warmup)
	s.Measure = clonePtr(s.Measure)
	s.Chaos = clonePtr(s.Chaos)
	return s
}

// ptr returns a pointer to a copy of v.
func ptr[T any](v T) *T { return &v }

// clonePtr returns a pointer to a copy of *p, or nil for nil.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	return ptr(*p)
}
