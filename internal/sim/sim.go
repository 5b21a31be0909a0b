// Package sim is the experiment-orchestration layer: it shards a
// (configuration × workload × seed) simulation grid across a worker pool
// sharing one cell cursor, isolates each cell's failures (a panicking or diverging
// configuration fails its own cell, never the sweep), streams completed
// cells into a deterministic merge, and checkpoints finished cells to JSON
// so an interrupted sweep resumes from where it stopped.
//
// Determinism is the load-bearing property: every cell's RNG seed is a pure
// function of (workload, seed index) — see DeriveSeed — and merge order is
// the grid order the cells were submitted in, so a sweep's aggregate
// statistics are bit-identical regardless of worker count or the order the
// scheduler happened to finish cells in. internal/experiments and
// cmd/benchjson both run on this layer; see DESIGN.md §6.
//
// This file is the cell-execution path: specschedlint's nodeterm
// analyzer holds it to the determinism rules (no wall clock, no global
// RNG, no order-leaking map iteration).

//specsched:determinism
package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
	"specsched/internal/uop"
)

// Cell is one independently dispatchable unit of the sweep grid: a full
// core configuration, a workload name, and a seed-replica index.
type Cell struct {
	Config   config.CoreConfig
	Workload string
	// SeedIdx selects the seed replica. Index 0 is the workload profile's
	// calibrated seed (bit-compatible with a core built directly over
	// trace.New(p) with wrong-path seed p.Seed); higher indices derive
	// fresh streams via DeriveSeed.
	SeedIdx int
}

// Key returns the checkpoint key of the cell. It deliberately uses the
// configuration *name*; Checkpoint.Lookup additionally compares the
// configuration digest so a renamed-but-changed config never reuses stale
// results.
func (c Cell) Key() string {
	return fmt.Sprintf("%s\x00%s\x00%d", c.Config.Name, c.Workload, c.SeedIdx)
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s#%d", c.Config.Name, c.Workload, c.SeedIdx)
}

// Result is the outcome of one cell: either a populated Run or an Err
// (simulation error, panic, or timeout). Cached marks results satisfied
// from a resume checkpoint without simulating.
type Result struct {
	Cell   Cell
	Run    *stats.Run
	Err    error
	Cached bool
	// Deduped marks results served by a shared DedupCache — computed by a
	// concurrent pool (or an earlier one) for an identical cell instead of
	// being simulated here. The Run is shared: copy before mutating.
	Deduped bool
	// Attempts is how many attempts the cell took (1 = first try; >1
	// means transient failures were retried). 0 for cached cells.
	Attempts int
	Elapsed  float64 // seconds of wall clock spent simulating, summed over attempts (0 if cached)
}

// heartbeatKey carries the stall-watchdog heartbeat counter through the
// context handed to cell functions.
type heartbeatKey struct{}

// WithHeartbeat returns a context carrying a heartbeat counter for the
// cell function to bump with its simulated-cycle position. Pool.runCell
// installs one when the stall watchdog is armed; Run wires it to
// core.SetHeartbeat so the core's cancellation poll (every 4096
// busy cycles) publishes progress for free.
func WithHeartbeat(ctx context.Context, hb *atomic.Int64) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, hb)
}

// HeartbeatFrom extracts the heartbeat counter installed by WithHeartbeat,
// or nil if the context carries none.
func HeartbeatFrom(ctx context.Context) *atomic.Int64 {
	hb, _ := ctx.Value(heartbeatKey{}).(*atomic.Int64)
	return hb
}

// DeriveSeed maps (base profile seed, workload, seed index) to the RNG seed
// of one cell. Index 0 returns the profile's calibrated seed unchanged so
// the default single-seed sweep stays bit-identical to the historical
// serial path; higher indices mix the workload name and index through
// splitmix64 so replicas are decorrelated but reproducible.
//
// The configuration is deliberately *not* hashed in: the paper's
// normalization (every config vs Baseline_0, per benchmark) requires all
// configurations of a workload to execute the identical instruction
// stream, which means the trace seed must depend on the workload and seed
// index only.
func DeriveSeed(base uint64, workload string, seedIdx int) uint64 {
	if seedIdx == 0 {
		return base
	}
	h := fnv.New64a()
	io.WriteString(h, workload)
	return splitmix64(base ^ h.Sum64() ^ (uint64(seedIdx) * 0x9e3779b97f4a7c15))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ErrBadTrace marks cell failures caused by the recorded trace backing a
// workload — unreadable or corrupt files, traces too short for the
// simulation window, or a stream that ran dry inside the window's
// fetch-ahead. Run is the only place a cell's trace failures are
// classified; the public façade maps the sentinel onto its own ErrBadTrace.
var ErrBadTrace = errors.New("sim: unusable trace")

// TraceRef names one recorded µ-op trace (internal/traceio) serving as a
// sweep workload: cells whose Workload matches Name replay the file at
// Path instead of generating a synthetic stream. LoadTrace reads and
// decompresses the file once; every cell then decodes from the shared
// in-memory body. The header's content digest feeds the sweep fingerprint
// so a swapped trace file invalidates checkpointed cells instead of
// silently reusing them.
type TraceRef struct {
	Name   string
	Path   string
	Header traceio.Header

	// proto is the loaded decoder the ref was created with; NewStream
	// clones it (shared read-only body, fresh decode state) per cell.
	proto *traceio.Decoder
}

// LoadTrace reads and validates the trace at path and returns a TraceRef
// named after the file stem ("corpus/mcf.trace" → "mcf"). The
// decompressed body (a few bytes per µ-op) stays resident for the ref's
// lifetime — it is the working set every cell of a sweep replays.
func LoadTrace(path string) (TraceRef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TraceRef{}, fmt.Errorf("%w: %s: %v", ErrBadTrace, path, err)
	}
	d, err := traceio.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return TraceRef{}, fmt.Errorf("%w: %s: %v", ErrBadTrace, path, err)
	}
	return TraceRef{Name: traceio.WorkloadName(path), Path: path, Header: d.Header(), proto: d}, nil
}

// NewStream opens the trace for one replay. Refs from LoadTrace clone the
// cached in-memory body (no I/O, no inflation); a zero-constructed ref
// falls back to reading Path. Either way the returned stream needs no
// Close and its NextInto steady state allocates nothing.
func (t TraceRef) NewStream() (*traceio.Decoder, error) {
	if t.proto != nil {
		return t.proto.Clone(), nil
	}
	loaded, err := LoadTrace(t.Path)
	if err != nil {
		return nil, err
	}
	return loaded.proto.Clone(), nil
}

// TraceSet maps workload names to recorded traces. A trace whose name
// collides with a Table 2 profile shadows the profile for cells in sweeps
// carrying the set.
type TraceSet map[string]TraceRef

// SimulateCell runs one cell to completion. Cells whose workload name is
// present in traces replay the recorded stream (bit-identical to the live
// generation it recorded); all other cells generate the workload profile's
// stream synthetically. Seed replicas of a trace cell vary the wrong-path
// filler seed only — index 0 is the recorded seed, making the default
// replica bit-identical to the live run — since the correct-path stream
// is fixed by the file. Trace-caused failures match ErrBadTrace.
func SimulateCell(ctx context.Context, cell Cell, warmup, measure int64, traces TraceSet) (*stats.Run, error) {
	s := Stream{Name: cell.Workload}
	if tr, ok := traces[cell.Workload]; ok {
		d, err := tr.NewStream()
		if err != nil {
			return nil, err
		}
		s.UOps, s.Count, s.Err = d, tr.Header.Count, d.Err
		s.WPSeed = DeriveSeed(tr.Header.WrongPathSeed, cell.Workload, cell.SeedIdx)
	} else {
		p, err := trace.ByName(cell.Workload)
		if err != nil {
			return nil, err
		}
		p = p.WithSeed(DeriveSeed(p.Seed, cell.Workload, cell.SeedIdx))
		s.UOps, s.WPSeed = trace.New(p), p.Seed
	}
	return Run(ctx, cell.Config, s, warmup, measure)
}

// Stream is one realized workload instance ready to drive a core: the
// µ-op stream, the seed of the wrong-path filler generator, the stream's
// µ-op bound (0 = unbounded, i.e. generated), and — for recorded traces —
// a probe distinguishing clean exhaustion from mid-stream decode
// corruption (nil for generated streams).
type Stream struct {
	Name   string
	UOps   uop.Stream
	WPSeed uint64
	Count  int64
	Err    func() error
}

// Run is the one cell executor: every simulation, sweep cell or single
// façade run, builds its core, runs its window and classifies trace
// failures here. It rejects a window longer than a bounded stream, builds
// a core for cfg running s, wires the heartbeat from ctx, commits warmup
// µ-ops and measures the next measure µ-ops. A canceled context aborts
// the run mid-simulation (the core polls it) and returns the cancellation
// cause. A stream that fails to decode, ends inside the window, or runs
// dry inside the window's fetch-ahead fails with ErrBadTrace.
func Run(ctx context.Context, cfg config.CoreConfig, s Stream, warmup, measure int64) (*stats.Run, error) {
	if s.Count > 0 && s.Count < warmup+measure {
		return nil, fmt.Errorf("%w: %s records %d µ-ops, window needs at least %d",
			ErrBadTrace, s.Name, s.Count, warmup+measure)
	}
	c, err := core.New(cfg, s.UOps, s.WPSeed)
	if err != nil {
		return nil, err
	}
	c.SetWorkloadName(s.Name)
	c.SetHeartbeat(HeartbeatFrom(ctx))
	r, err := c.RunContext(ctx, warmup, measure)
	switch {
	case err != nil && s.Err != nil && s.Err() != nil:
		// The stream "ended" because a record failed to decode: surface
		// the corruption, not the drained pipeline.
		return nil, fmt.Errorf("%w: %s: %w", ErrBadTrace, s.Name, s.Err())
	case errors.Is(err, core.ErrStreamEnded):
		return nil, fmt.Errorf("%w: %s (%d recorded µ-ops) ran dry inside the window: %w",
			ErrBadTrace, s.Name, s.Count, err)
	case err != nil:
		return nil, err
	case c.StreamExhausted():
		// The window committed, but fetch consumed the trace's final µ-op
		// mid-window: the fetch-ahead — and so the statistics — can differ
		// from a live run. Bit-identity or failure, nothing in between.
		return nil, fmt.Errorf("%w: %s ran dry inside the window's fetch-ahead (%d recorded µ-ops; record more slack)",
			ErrBadTrace, s.Name, s.Count)
	}
	return r, nil
}

// Fingerprint summarizes the sweep-wide options that determine a cell's
// result beyond its (config, workload, seed) coordinates. Checkpoints
// created under a different fingerprint are rejected rather than silently
// merged.
func Fingerprint(warmup, measure int64, sched config.SchedulerImpl) string {
	return fmt.Sprintf("warmup=%d,measure=%d,sched=%s", warmup, measure, sched)
}

// FingerprintTraces is the event scheduler's Fingerprint extended with the
// identity of every trace workload: name, body digest, µ-op count, and
// wrong-path seed. A trace file swapped for different contents under the
// same path therefore changes the fingerprint, and a checkpoint recorded
// against the old contents is rejected instead of contaminating the
// resumed sweep.
func FingerprintTraces(warmup, measure int64, traces TraceSet) string {
	fp := Fingerprint(warmup, measure, config.SchedEvent)
	if len(traces) == 0 {
		return fp
	}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(fp)
	for _, name := range names {
		tr := traces[name]
		fmt.Fprintf(&b, ",trace:%s=%016x/%d/%d", name, tr.Header.Digest, tr.Header.Count, tr.Header.WrongPathSeed)
	}
	return b.String()
}
