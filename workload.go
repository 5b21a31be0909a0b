package specsched

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"specsched/internal/sim"
	"specsched/internal/trace"
	"specsched/internal/traceio"
	"specsched/internal/uop"
)

// AgenKind selects an address-generation pattern for the memory µ-ops of a
// custom workload profile.
type AgenKind uint8

const (
	// AgenStride walks an array with a fixed byte stride, wrapping at the
	// footprint boundary.
	AgenStride AgenKind = iota
	// AgenRandom draws addresses uniformly from the footprint.
	AgenRandom
	// AgenChase emits a serialized pointer chase: each load's address
	// depends on the previously loaded value.
	AgenChase
)

// AgenSpec describes one address-stream family of a custom profile; memory
// slots of the synthetic program bind to a family by Weight.
type AgenSpec struct {
	Kind AgenKind
	// Footprint is the working-set size in bytes (rounded up to a power
	// of two internally).
	Footprint int
	// Stride is the byte stride for AgenStride.
	Stride int
	// Weight is the relative probability that a static memory slot of
	// the program binds to this family.
	Weight float64
}

// Profile parameterizes a custom synthetic workload: a static control-flow
// graph of basic blocks whose instruction slots have fixed classes, fixed
// register templates and — for memory slots — a fixed address-stream
// family. The fields control the statistical structure that drives
// scheduling behaviour: instruction mix, dependence distances (ILP),
// address streams (cache hit rates and bank behaviour) and branch
// predictability. See the delaysweep example for a worked profile.
type Profile struct {
	Name string
	Seed uint64

	// Static program shape.
	Blocks   int // number of basic blocks
	BlockLen int // mean non-branch µ-ops per block

	// Instruction mix.
	LoadFrac   float64 // fraction of slots that are loads
	StoreFrac  float64 // fraction of slots that are stores
	FPFrac     float64 // fraction of compute slots that are FP
	MulDivFrac float64 // fraction of compute slots that are long-latency

	// Dependence structure.
	MeanDepDist float64 // mean register dependence distance in µ-ops
	UseBaseFrac float64 // fraction of sources reading loop-invariant bases
	// AddrDepFrac is the fraction of (non-chase) loads whose address
	// register comes from a recent result instead of a loop-invariant
	// base — pointer arithmetic that puts the load on a dependence chain.
	AddrDepFrac float64
	// LoadUseFrac is the probability that the first compute µ-op after a
	// load consumes that load's result.
	LoadUseFrac float64

	// Address streams; memory slots bind to one family by Weight.
	Agens []AgenSpec

	// Branch behaviour (one conditional branch per block).
	InnerLoopFrac    float64 // blocks ending in a self-loop branch
	LoopTrip         int     // trip count of self-loops
	SkipFrac         float64 // blocks ending in a biased forward skip
	SkipBias         float64 // taken probability of skips
	RandomBranchFrac float64 // blocks ending in an unpredictable branch
}

// toTrace converts the public profile to the internal generator profile.
func (p Profile) toTrace() trace.Profile {
	agens := make([]trace.AgenSpec, len(p.Agens))
	for i, a := range p.Agens {
		agens[i] = trace.AgenSpec{
			Kind:      trace.AgenKind(a.Kind),
			Footprint: a.Footprint,
			Stride:    a.Stride,
			Weight:    a.Weight,
		}
	}
	return trace.Profile{
		Name:             p.Name,
		Seed:             p.Seed,
		Blocks:           p.Blocks,
		BlockLen:         p.BlockLen,
		LoadFrac:         p.LoadFrac,
		StoreFrac:        p.StoreFrac,
		FPFrac:           p.FPFrac,
		MulDivFrac:       p.MulDivFrac,
		MeanDepDist:      p.MeanDepDist,
		UseBaseFrac:      p.UseBaseFrac,
		AddrDepFrac:      p.AddrDepFrac,
		LoadUseFrac:      p.LoadUseFrac,
		Agens:            agens,
		InnerLoopFrac:    p.InnerLoopFrac,
		LoopTrip:         p.LoopTrip,
		SkipFrac:         p.SkipFrac,
		SkipBias:         p.SkipBias,
		RandomBranchFrac: p.RandomBranchFrac,
	}
}

// kernelSeed is the default RNG seed of the synthetic kernels (overridable
// with WithSeed); named profiles default to their calibrated seed instead.
const kernelSeed = 7

// builtWorkload is one realized workload instance: the stream a core
// runs (see sim.Stream; the Simulator names it after the workload) plus a
// generator fingerprint for trace recording.
type builtWorkload struct {
	sim.Stream
	gen string
}

// Workload selects the µ-op stream a Simulator runs: a named profile from
// the Table 2 suite, a custom Profile, one of the synthetic kernels, or a
// recorded trace. The zero value selects nothing and fails at Run with
// ErrUnknownWorkload.
type Workload struct {
	name string
	// build constructs the stream. seedSet reports whether seed overrides
	// the workload's default.
	build func(seed uint64, seedSet bool) (builtWorkload, error)
}

// Name returns the workload's display name ("" for the zero value).
func (w Workload) Name() string { return w.name }

// WorkloadByName selects a profile from the Table 2 suite by benchmark
// name. The name is resolved when the workload is used; an unknown name
// surfaces as ErrUnknownWorkload.
func WorkloadByName(name string) Workload {
	return Workload{name: name, build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		p, err := trace.ByName(name)
		if err != nil {
			return builtWorkload{}, wrapErr(ErrUnknownWorkload, err)
		}
		if seedSet {
			p = p.WithSeed(seed)
		}
		return builtWorkload{
			Stream: sim.Stream{UOps: trace.New(p), WPSeed: p.Seed},
			gen:    fmt.Sprintf("profile:%s seed=%d", name, p.Seed),
		}, nil
	}}
}

// CustomWorkload builds a workload from a custom synthetic profile. An
// invalid profile surfaces as ErrInvalidConfig when the workload is used.
func CustomWorkload(p Profile) Workload {
	return Workload{name: p.Name, build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		tp := p.toTrace()
		if seedSet {
			tp = tp.WithSeed(seed)
		}
		if err := tp.Validate(); err != nil {
			return builtWorkload{}, wrapErr(ErrInvalidConfig, err)
		}
		return builtWorkload{
			Stream: sim.Stream{UOps: trace.New(tp), WPSeed: tp.Seed},
			gen:    fmt.Sprintf("custom:%s seed=%d", tp.Name, tp.Seed),
		}, nil
	}}
}

// StencilWorkload is the bank-conflict kernel: c[i] = a[i] + b[i] with the
// arrays laid out so each iteration's two loads map to the same L1 bank —
// the pattern Schedule Shifting (§5.1) absorbs. footprint is the per-array
// working set in bytes.
func StencilWorkload(footprint int) Workload {
	return Workload{name: "stencil", build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		return builtWorkload{
			Stream: sim.Stream{UOps: trace.NewStencil(footprint), WPSeed: orDefault(seed, seedSet)},
			gen:    fmt.Sprintf("kernel:stencil footprint=%d", footprint),
		}, nil
	}}
}

// StreamWorkload is a streaming reduction (sum += a[i]) over footprint
// bytes: sequential loads with a loop-carried dependence only through the
// accumulator.
func StreamWorkload(footprint int) Workload {
	return Workload{name: "stream", build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		return builtWorkload{
			Stream: sim.Stream{UOps: trace.NewStreamSum(footprint), WPSeed: orDefault(seed, seedSet)},
			gen:    fmt.Sprintf("kernel:stream footprint=%d", footprint),
		}, nil
	}}
}

// PointerChaseWorkload is a serialized pointer chase over nodes list nodes:
// every load's address depends on the previous load's value, the
// worst case for load-to-use latency.
func PointerChaseWorkload(nodes int) Workload {
	return Workload{name: "chase", build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		s := orDefault(seed, seedSet)
		return builtWorkload{
			Stream: sim.Stream{UOps: trace.NewPointerChase(s, nodes), WPSeed: s},
			gen:    fmt.Sprintf("kernel:chase nodes=%d seed=%d", nodes, s),
		}, nil
	}}
}

func orDefault(seed uint64, seedSet bool) uint64 {
	if seedSet {
		return seed
	}
	return kernelSeed
}

// buildTraceStream decodes an in-memory trace into a built workload. An
// explicit WithSeed overrides the recorded wrong-path seed (the
// correct-path stream is fixed by the file); without one, replay
// reproduces the recording workload's statistics bit for bit.
func buildTraceStream(data []byte, seed uint64, seedSet bool) (builtWorkload, error) {
	d, err := traceio.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return builtWorkload{}, wrapErr(ErrBadTrace, err)
	}
	h := d.Header()
	wpSeed := h.WrongPathSeed
	if seedSet {
		wpSeed = seed
	}
	return builtWorkload{
		Stream: sim.Stream{UOps: d, WPSeed: wpSeed, Count: h.Count, Err: d.Err},
		gen:    h.Generator,
	}, nil
}

// TraceWorkload replays a recorded µ-op trace (see Workload.Record and
// cmd/tracedump). Replaying an uncorrupted trace of a workload produces a
// Run bit-identical to simulating that workload live; the file is
// re-opened on every use, so the workload is reusable like any other. An
// unusable file surfaces as ErrBadTrace when the workload is used.
func TraceWorkload(path string) Workload {
	return Workload{name: traceio.WorkloadName(path), build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return builtWorkload{}, wrapErr(ErrBadTrace, err)
		}
		return buildTraceStream(data, seed, seedSet)
	}}
}

// TraceWorkloadReader is TraceWorkload over any reader — an embedded
// asset, a network body, an in-memory recording. The reader is drained
// once, on first use, and the bytes are retained so the workload stays
// reusable.
func TraceWorkloadReader(r io.Reader) Workload {
	load := sync.OnceValues(func() ([]byte, error) { return io.ReadAll(r) })
	return Workload{name: "trace", build: func(seed uint64, seedSet bool) (builtWorkload, error) {
		data, err := load()
		if err != nil {
			return builtWorkload{}, wrapErr(ErrBadTrace, err)
		}
		return buildTraceStream(data, seed, seedSet)
	}}
}

// RecordTo records the first n µ-ops of the workload's dynamic stream as
// a binary trace on dst (see DESIGN.md §9 for the format). The recording
// captures everything replay needs for bit-identity — including the
// wrong-path generator seed — so TraceWorkload on the result simulates
// exactly like the live workload. For workloads that are themselves
// recorded traces, n <= 0 means "the whole trace", and re-recording one
// reproduces it byte for byte.
func (w Workload) RecordTo(dst io.Writer, n int64) error {
	if w.build == nil {
		return wrapErrf(ErrUnknownWorkload, "specsched: no workload selected")
	}
	b, err := w.build(0, false)
	if err != nil {
		return err
	}
	if n <= 0 {
		n = b.Count
	}
	if n <= 0 {
		return wrapErrf(ErrInvalidConfig,
			"specsched: recording an unbounded workload needs an explicit µ-op count")
	}
	if _, err := traceio.Record(dst, b.UOps, n, b.gen, b.WPSeed); err != nil {
		if b.Err != nil && b.Err() != nil {
			return wrapErr(ErrBadTrace, b.Err())
		}
		return wrapErr(ErrInvalidConfig, err)
	}
	return nil
}

// Record is RecordTo into a file, created (or truncated) at path. On
// error the partial file is removed.
func (w Workload) Record(path string, n int64) error {
	f, err := os.Create(path)
	if err != nil {
		return wrapErr(ErrInvalidConfig, err)
	}
	if err := w.RecordTo(f, n); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return wrapErr(ErrInvalidConfig, err)
	}
	return nil
}

// TraceInfo is the self-describing front matter of a recorded trace.
type TraceInfo struct {
	// Version is the trace format version the file was written with.
	Version int
	// Generator fingerprints what produced the stream (e.g.
	// "profile:gzip seed=1001"); re-recording preserves it.
	Generator string
	// UOps is the number of µ-ops recorded.
	UOps int64
	// Digest is the FNV-64a digest of the encoded µ-op payload — the
	// identity sweep checkpoints use to detect swapped trace files.
	Digest uint64
	// WrongPathSeed seeds wrong-path fetch at replay, reproducing the
	// recording workload's wrong-path behaviour bit for bit.
	WrongPathSeed uint64
}

// ReadTraceInfo reads and validates a trace's header without decoding its
// body. Unreadable or non-trace files surface as ErrBadTrace.
func ReadTraceInfo(path string) (TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceInfo{}, wrapErr(ErrBadTrace, err)
	}
	defer f.Close()
	h, err := traceio.ReadInfo(f)
	if err != nil {
		return TraceInfo{}, wrapErr(ErrBadTrace, err)
	}
	return traceInfoFromHeader(h), nil
}

// VerifyTrace fully decodes the trace at path, checking every record, the
// µ-op count, and the body digest. Any corruption surfaces as ErrBadTrace.
func VerifyTrace(path string) (TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceInfo{}, wrapErr(ErrBadTrace, err)
	}
	defer f.Close()
	h, err := traceio.Verify(f)
	if err != nil {
		return TraceInfo{}, wrapErr(ErrBadTrace, err)
	}
	return traceInfoFromHeader(h), nil
}

// Trace renders the first n µ-ops of the workload's dynamic stream, one
// formatted µ-op per element — the inspection hook behind cmd/tracedump.
// Streams over before n µ-ops return what was produced.
func (w Workload) Trace(n int) ([]string, error) {
	if w.build == nil {
		return nil, wrapErrf(ErrUnknownWorkload, "specsched: no workload selected")
	}
	b, err := w.build(0, false)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(n, 4096))
	var u uop.UOp
	for i := 0; i < n; i++ {
		if !b.UOps.NextInto(&u) {
			if b.Err != nil && b.Err() != nil {
				return out, wrapErr(ErrBadTrace, b.Err())
			}
			break
		}
		out = append(out, u.String())
	}
	return out, nil
}

// WorkloadInfo describes one benchmark of the Table 2 suite.
type WorkloadInfo struct {
	// Name is the benchmark name, accepted by WorkloadByName and the sweep
	// workload options.
	Name string
	// PaperIPC is the IPC the paper's Table 2 reports for the benchmark
	// the synthetic profile imitates.
	PaperIPC float64
}

// Workloads lists the Table 2 benchmark suite in the paper's table order.
func Workloads() []WorkloadInfo {
	ps := trace.Profiles()
	out := make([]WorkloadInfo, len(ps))
	for i, p := range ps {
		out[i] = WorkloadInfo{Name: p.Name, PaperIPC: p.PaperIPC}
	}
	return out
}

// WorkloadNames lists the suite's workload names in table order.
func WorkloadNames() []string { return trace.ProfileNames() }

// validateWorkloads fails fast on a sweep over unknown workload names.
func validateWorkloads(names []string) error {
	for _, n := range names {
		if _, err := trace.ByName(n); err != nil {
			return wrapErr(ErrUnknownWorkload, fmt.Errorf("workload %q: %w", n, err))
		}
	}
	return nil
}
