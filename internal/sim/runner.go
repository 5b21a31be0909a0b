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
// key deterministic per-attempt behavior off it. A runner that holds
// resources (worker processes, sockets) is released by its owner, not by
// the pool.
type CellRunner interface {
	RunCell(ctx context.Context, cell Cell, attempt int) (*stats.Run, error)
}

// RunnerFunc adapts a plain cell function to CellRunner, ignoring the
// attempt number, so a plain function can drive Pool.RunWith.
type RunnerFunc func(ctx context.Context, cell Cell) (*stats.Run, error)

// RunCell implements CellRunner.
func (f RunnerFunc) RunCell(ctx context.Context, cell Cell, _ int) (*stats.Run, error) {
	return f(ctx, cell)
}

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
