// Cell-execution path: nodeterm's determinism rules apply (a runner's
// result must be a pure function of the cell spec).

//specsched:determinism
package sim

import (
	"context"

	"specsched/internal/stats"
)

// CellRunner is the execution seam of the pool: one attempt of one cell,
// wherever that attempt actually runs. The in-process LocalRunner is the
// default; internal/worker provides a subprocess-backed implementation
// whose results are bit-identical (the per-cell seeding makes a cell's
// result a pure function of the cell spec, so placement cannot matter).
//
// The pool calls RunCell from the attempt goroutine it already isolates —
// panics, timeouts, stalls, and retry classification all apply unchanged,
// which is what lets a crashed worker subprocess look like any other
// transient cell failure. attempt is 1-based and increments across retries
// of the same cell, so a runner (or an injected fault plan behind it) can
// key deterministic per-attempt behavior off it.
//
// Close releases whatever the runner holds (worker processes, sockets);
// the pool does not call it — the runner's owner does, after every
// RunWith using it has returned.
type CellRunner interface {
	RunCell(ctx context.Context, cell Cell, attempt int) (*stats.Run, error)
	Close() error
}

// RunnerFunc adapts a plain cell function to CellRunner, ignoring the
// attempt number and holding no resources, so a plain function can drive
// Pool.RunWith.
type RunnerFunc func(ctx context.Context, cell Cell) (*stats.Run, error)

// RunCell implements CellRunner.
func (f RunnerFunc) RunCell(ctx context.Context, cell Cell, _ int) (*stats.Run, error) {
	return f(ctx, cell)
}

// Close implements CellRunner as a no-op.
func (f RunnerFunc) Close() error { return nil }

// LocalRunner is the default in-process CellRunner: SimulateCell with the
// configured windows and trace set, on the calling goroutine.
type LocalRunner struct {
	Warmup  int64
	Measure int64
	Traces  TraceSet
}

// RunCell implements CellRunner.
func (l LocalRunner) RunCell(ctx context.Context, cell Cell, _ int) (*stats.Run, error) {
	return SimulateCell(ctx, cell, l.Warmup, l.Measure, l.Traces)
}

// Close implements CellRunner as a no-op.
func (l LocalRunner) Close() error { return nil }
