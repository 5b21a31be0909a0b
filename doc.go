// Package specsched reproduces "Cost-Effective Speculative Scheduling in
// High Performance Processors" (Perais, Seznec, Michaud, Sembrant,
// Hagersten — ISCA 2015) as a from-scratch, cycle-level out-of-order core
// simulator written in pure Go, and exposes it as an embeddable library.
//
// # Public surface
//
// This package is the stable API; everything under internal/ is
// implementation. Two entry points cover the two ways the simulator is
// used:
//
//   - Simulator runs one workload on one configuration:
//
//     r, err := specsched.NewSimulator(
//     specsched.WithWorkload("xalancbmk"),
//     specsched.WithPreset("SpecSched_4_Crit"),
//     ).Run(ctx)
//
//   - Sweep orchestrates a (configuration × workload × seed) grid, built
//     from one SweepSpec, on a worker pool with per-cell failure isolation
//     and resumable checkpoints, either collected at once (Run) or consumed as a
//     streaming iterator while cells complete (Results). The same Sweep
//     regenerates the paper's tables and figures by name (Report).
//
// Configurations are addressed by preset name (specsched/presets);
// results are typed records (specsched/results). Workloads are the Table
// 2 suite by name, custom synthetic profiles (Profile), the synthetic
// kernels (stencil, stream, pointer chase), or recorded binary µ-op
// traces (TraceWorkload; record them with Workload.Record or
// cmd/tracedump). Replaying an uncorrupted recording reproduces the live
// workload's statistics bit for bit, and sweeps accept traces as
// first-class grid workloads (SweepSpec.Traces).
//
// Everything accepts a context.Context: the simulation core polls it every
// few thousand simulated cycles, so canceling a run or sweep takes effect
// within milliseconds, returns an error matching ErrCanceled, and — for a
// checkpointed sweep — flushes the completed cells so the sweep resumes
// where it stopped. The error taxonomy is four sentinels
// (ErrUnknownWorkload, ErrInvalidConfig, ErrCanceled, ErrBadTrace), each
// wrapped around its concrete cause.
//
// Determinism is the load-bearing property throughout: a (workload, seed,
// configuration) triple always produces bit-identical statistics,
// regardless of worker count or whether cells came from a checkpoint.
// Internally the simulator also steps the same machine three ways (the
// event-driven scheduler with and without quiescent-cycle skipping, and
// the per-cycle scan); every public run uses the first, and differential
// tests prove the other two bit-identical to it.
//
// The exported surface is locked by a generated golden (api/specsched.txt,
// regenerated by TestPublicAPIGolden and diffed in CI); cmd/ and examples/
// build exclusively on the public packages, which CI enforces with an
// import gate. See README.md for a quickstart, DESIGN.md §8 for the
// public/internal boundary, and EXPERIMENTS.md for paper-vs-measured
// results.
package specsched
