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
// Sweep: every sweep knob as plain data, declared once, here. It is the
// wire format of the specschedd daemon (POST /v1/sweeps), the payload of
// the -spec CLI flags, and the library's NewSweepFromSpec input, so one
// description drives all three.
//
// Zero/omitted fields take defaults: nil Warmup and Measure select
// DefaultWarmup/DefaultMeasure, Seeds <= 0 selects one replica, and with
// Workers > 0 a zero Jobs follows Workers and a zero Retries selects 3.
// NewSweepFromSpec(s).Spec() returns s with those defaults made explicit;
// for a spec that already states them the round trip is the identity
// (see testdata/sweepspec.json for a fully explicit sample).
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
	// Traces lists recorded µ-op trace files (see Workload.Record and
	// cmd/tracedump) joining the workload axis, each named after its file
	// stem ("corpus/mcf.trace" → "mcf"). With no Workloads the grid runs
	// over the traces alone; with them, the trace names are appended to
	// the axis. A trace name shadows the Table 2 profile of the same name.
	// Each trace's content digest joins the checkpoint fingerprint, so
	// resuming against a swapped trace file is rejected instead of mixing
	// results. Seed replicas of a trace cell vary the wrong-path seed only
	// (the recorded stream is fixed); replica 0 replays bit-identically to
	// the live workload.
	Traces []string `json:"traces,omitempty"`
	// Seeds is the number of seed replicas per (config, workload) cell
	// (<= 0 selects 1, the calibrated profile seed).
	Seeds int `json:"seeds,omitempty"`
	// Jobs bounds the pool goroutines (0 = Workers when set, else
	// GOMAXPROCS).
	Jobs int `json:"jobs,omitempty"`
	// Workers executes cells in that many supervised worker subprocesses
	// instead of in-process goroutines (0 = in-process). Each worker is a
	// re-exec of the current binary — which must call MaybeWorker at the
	// top of main — running one cell per request over a stdin/stdout
	// protocol. Results are bit-identical either way: a cell's outcome is
	// a pure function of its (configuration, workload, seed, window), so
	// placement cannot matter. A crashed worker (OOM kill, runaway
	// simulation, stack overflow) costs one respawn and one transient
	// cell retry rather than the whole process; workers that crash
	// repeatedly are retired and, when every slot is gone, cells fall
	// back to in-process execution so the sweep still completes.
	// FailureReport counts the restarts and reassignments.
	Workers int `json:"workers,omitempty"`
	// Warmup and Measure are the per-cell simulation windows in µ-ops
	// (nil = DefaultWarmup / DefaultMeasure; an explicit 0 warmup is
	// honored, an explicit non-positive measure is invalid).
	Warmup  *int64 `json:"warmup_uops,omitempty"`
	Measure *int64 `json:"measure_uops,omitempty"`
	// Checkpoint names the resumable checkpoint file ("" = none):
	// completed cells are recorded there (flushed periodically and on
	// completion or cancellation) and a restarted sweep with the same spec
	// skips them. A file written under different windows or traces is
	// rejected, not silently merged. The specschedd daemon overrides it
	// with a per-job path it owns.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CellTimeout bounds one cell's wall clock (0 = unbounded); a
	// timed-out cell fails alone and the sweep continues.
	CellTimeout Duration `json:"cell_timeout,omitempty"`
	// StallTimeout arms the per-cell stall watchdog (0 = disabled): a cell
	// whose simulated-cycle counter stops advancing for this long is
	// killed early with a stall error instead of waiting out CellTimeout.
	// Slow but progressing cells are spared — the watchdog reads forward
	// progress, not wall clock.
	StallTimeout Duration `json:"stall_timeout,omitempty"`
	// Retries is the attempt budget per cell (1 = no retries; 0 = the
	// default: 1 in-process, 3 with Workers > 0 so a crashed worker's cell
	// is reassigned). Only transiently failing cells are retried — panics,
	// timeouts, stalls, worker crashes, and errors exposing
	// Transient() bool — while deterministic failures (ErrBadTrace,
	// ErrInvalidConfig) fail immediately: rerunning a deterministic
	// simulator on identical input cannot change the outcome.
	Retries int `json:"retries,omitempty"`
	// RetryBackoff is the delay before the first retry (0 = 100ms),
	// doubling per subsequent retry up to 32× RetryBackoff. A sweep stops
	// retrying timed-out or stalled cells once it has abandoned 2× Jobs
	// goroutines to them (such goroutines cannot be forcibly killed and
	// may linger until their simulation polls cancellation).
	RetryBackoff Duration `json:"retry_backoff,omitempty"`
	// Chaos, when non-nil, injects the deterministic fault plan into
	// every cell and checkpoint flush (testing only; see Chaos).
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

// validate is the construction-time validation behind NewSweepFromSpec: every named configuration must resolve, every workload
// must be a Table 2 benchmark or the stem of a listed trace, every trace
// header must parse, and every numeric range must make sense. Violations
// surface as the package's typed sentinels (ErrInvalidConfig,
// ErrUnknownWorkload, ErrBadTrace), so a daemon can reject a bad spec at
// submission instead of queueing a job that cannot run. The windows must
// already be defaulted (newSweep does so first).
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
	if err := validateWindows(*s.Warmup, *s.Measure); err != nil {
		return err
	}
	for _, d := range []struct {
		name string
		d    Duration
	}{
		{"cell_timeout", s.CellTimeout},
		{"stall_timeout", s.StallTimeout},
		{"retry_backoff", s.RetryBackoff},
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
		if c.HangRate > 0 && s.CellTimeout == 0 && s.StallTimeout == 0 {
			return wrapErrf(ErrInvalidConfig,
				"specsched: chaos HangRate %v needs cell_timeout or stall_timeout: a hung cell would never end", c.HangRate)
		}
	}
	return nil
}

// validateWindows checks a simulation window, the one rule a sweep spec
// and a Simulator share: warmup may be 0, measure must be positive.
func validateWindows(warmup, measure int64) error {
	if warmup < 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: negative warmup window %d", warmup)
	}
	if measure <= 0 {
		return wrapErrf(ErrInvalidConfig, "specsched: non-positive measurement window %d", measure)
	}
	return nil
}

// NewSweepFromSpec builds a sweep from its declarative description,
// validating it up front: unknown configurations and invalid ranges
// surface as ErrInvalidConfig, unknown workloads as ErrUnknownWorkload,
// unreadable trace files as ErrBadTrace. The inverse is (*Sweep).Spec.
//
// What the wire form cannot express — a callback (SweepProgress) and
// shared in-process state (SweepCellCache) — is passed as trailing opts.
func NewSweepFromSpec(spec SweepSpec, opts ...SweepOption) (*Sweep, error) {
	s := newSweep(spec, opts)
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// Spec returns the sweep's declarative description — the exact inverse of
// NewSweepFromSpec, with the construction defaults (window sizes, seed
// count, and with workers the jobs and retries) made explicit. A Sweep's options are immutable after
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
