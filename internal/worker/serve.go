package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"specsched/internal/faultinject"
	"specsched/internal/sim"
	"specsched/internal/stats"
)

// MaybeServe turns the process into a cell worker when the EnvWorker
// marker is set: it serves the protocol on stdin/stdout until the
// supervisor closes stdin, then exits the process. Host binaries that
// want subprocess sweep workers call it at the top of main (the public
// facade re-exports it as specsched.MaybeWorker); without the marker it
// returns immediately and main proceeds normally.
func MaybeServe() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "specsched-worker[%d]: %v\n", os.Getpid(), err)
		os.Exit(1)
	}
	os.Exit(0)
}

// defaultBeatEvery is the heartbeat emission period when the run request
// does not specify one.
const defaultBeatEvery = 250 * time.Millisecond

// Serve runs the worker side of the protocol: hello, then a loop of run
// requests — one cell at a time, simulated with exactly the in-process
// code path — interleaved with cancel requests for the running cell.
// Heartbeat frames carrying the simulated-cycle counter flow while a cell
// runs. Serve returns nil when the supervisor closes its end, and an
// error on a frame it cannot decode or does not expect, or on a result it
// cannot send.
//
// Serve closes r and returns only after its reader goroutine has ended.
// When a result cannot be sent, closing r ends the reader's pending read
// (for a file that is not pollable, such as a blocking stdin, the read
// ends when the supervisor closes its end or exits) and Serve drains the
// run slot the reader may be blocked on.
func Serve(r io.ReadCloser, w io.Writer) error {
	defer r.Close()
	s := &workerServer{w: w, chaos: chaosFromEnv()}
	if err := writeFrame(w, &frame{Type: frameHello, Version: ProtocolVersion, PID: os.Getpid()}); err != nil {
		return err
	}
	// One reader for the life of the process: a cancel frame must reach
	// the running simulation at once, while the supervisor sends the next
	// run only after the previous result, so one slot holds every run.
	runs := make(chan cellRun, 1)
	var readErr error
	go func() {
		defer close(runs)
		readErr = readRuns(r, runs)
	}()
	for c := range runs {
		if err := s.runCell(c); err != nil {
			r.Close()
			for c := range runs {
				c.cancel(nil)
			}
			return err
		}
	}
	return readErr
}

// cellRun is one run request on its way from the reader to the serve
// loop, with the context its cancel frames cancel.
type cellRun struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	id     uint64
	spec   *cellSpec
}

// errCanceledBySupervisor is the cancel-frame cause; it reports on the
// wire as the "canceled" kind, which the supervisor swaps for its own
// context cause.
var errCanceledBySupervisor = errors.New("worker: canceled by supervisor")

// readRuns reads the supervisor's frames until EOF (nil) or a frame it
// cannot accept (an error). It hands each run request to runs with a
// fresh context, and cancels that context when a cancel frame names the
// request; a cancel for a finished or unknown request is a no-op. The
// context is created here rather than by the serve loop so that a cancel
// arriving right behind its run is never mistaken for a stale one. A
// cell still running at EOF is left to finish and send its result.
func readRuns(r io.Reader, runs chan<- cellRun) error {
	var last cellRun
	for {
		var f frame
		switch err := readFrame(r, &f); {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
		switch f.Type {
		case frameRun:
			if f.Cell == nil {
				return fmt.Errorf("worker: run frame %d without a cell", f.ID)
			}
			ctx, cancel := context.WithCancelCause(context.Background())
			last = cellRun{ctx: ctx, cancel: cancel, id: f.ID, spec: f.Cell}
			runs <- last
		case frameCancel:
			if last.cancel != nil && f.ID == last.id {
				last.cancel(errCanceledBySupervisor)
			}
		default:
			return fmt.Errorf("worker: unexpected %q frame from supervisor", f.Type)
		}
	}
}

// workerServer is one worker process's state: its output, and a cache of
// loaded traces (a sweep re-requests the same trace for every cell of
// that workload; decompress once). Its frames need no lock: the beat
// goroutine writes only while a cell runs, and hello and each result are
// sent outside that span.
type workerServer struct {
	w      io.Writer
	traces map[string]sim.TraceRef
	chaos  *faultinject.Plan
}

// runCell executes one cell request and sends its result frame; the
// error is the send's (stdout gone).
func (s *workerServer) runCell(c cellRun) error {
	defer c.cancel(nil)
	// Heartbeats: the core publishes its cycle counter into hb at its
	// cancellation poll; a ticker forwards it as beat frames. The value
	// freezing while beats keep flowing is exactly how the sim pool's
	// stall watchdog distinguishes "hung" from "slow" — and the beats
	// themselves are the supervisor's process-liveness signal.
	hb := new(atomic.Int64)
	hb.Store(-1)
	beatEvery := defaultBeatEvery
	if c.spec.BeatEveryMS > 0 {
		beatEvery = time.Duration(c.spec.BeatEveryMS) * time.Millisecond
	}
	beatStop, beatDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(beatDone)
		tk := time.NewTicker(beatEvery)
		defer tk.Stop()
		for {
			select {
			case <-beatStop:
				return
			case <-tk.C:
				writeFrame(s.w, &frame{Type: frameBeat, ID: c.id, Cycle: hb.Load()})
			}
		}
	}()

	run, err := s.simulate(sim.WithHeartbeat(c.ctx, hb), c.spec)
	close(beatStop)
	<-beatDone

	res := &frame{Type: frameResult, ID: c.id, Run: run}
	if err != nil {
		res.Run, res.Error, res.Kind = nil, err.Error(), errKind(c.ctx, err)
	}
	if err := writeFrame(s.w, res); err != nil {
		// stdout gone: the supervisor died or killed us mid-result.
		return fmt.Errorf("worker: send result: %w", err)
	}
	return nil
}

// simulate runs one cell spec through sim.SimulateCell — the identical
// code path the in-process runner uses, which is the whole determinism
// argument. Trace workloads are loaded once per path and verified against
// the supervisor's content digest.
func (s *workerServer) simulate(ctx context.Context, spec *cellSpec) (*stats.Run, error) {
	if d := spec.Config.Digest(); d != spec.ConfigDigest {
		return nil, fmt.Errorf("worker: config %q digest mismatch after decode (%016x on the wire, %016x decoded)",
			spec.Config.Name, spec.ConfigDigest, d)
	}
	if s.chaos != nil && s.chaos.Cell(cellKey(spec), spec.Attempt) == faultinject.Panic {
		fmt.Fprintf(os.Stderr, "specsched-worker[%d]: injected crash (%s/%s#%d attempt %d)\n",
			os.Getpid(), spec.Config.Name, spec.Workload, spec.SeedIdx, spec.Attempt)
		os.Exit(workerExitChaos)
	}
	var traces sim.TraceSet
	if spec.TracePath != "" {
		ref, err := s.loadTrace(spec.TracePath)
		if err != nil {
			return nil, err
		}
		if ref.Header.Digest != spec.TraceDigest {
			return nil, fmt.Errorf("%w: %s: content digest %016x does not match the swept trace %016x (file changed under the sweep?)",
				sim.ErrBadTrace, spec.TracePath, ref.Header.Digest, spec.TraceDigest)
		}
		traces = sim.TraceSet{spec.Workload: ref}
	}
	cell := sim.Cell{Config: spec.Config, Workload: spec.Workload, SeedIdx: spec.SeedIdx}
	return sim.SimulateCell(ctx, cell, spec.Warmup, spec.Measure, traces)
}

func (s *workerServer) loadTrace(path string) (sim.TraceRef, error) {
	if ref, ok := s.traces[path]; ok {
		return ref, nil
	}
	ref, err := sim.LoadTrace(path)
	if err != nil {
		return sim.TraceRef{}, err
	}
	if s.traces == nil {
		s.traces = make(map[string]sim.TraceRef)
	}
	s.traces[path] = ref
	return ref, nil
}

// cellKey mirrors sim.Cell.Key for chaos draws, so an injected worker
// crash hits the same (cell, attempt) coordinates a sim-pool chaos plan
// with the same seed would.
func cellKey(spec *cellSpec) string {
	return fmt.Sprintf("%s\x00%s\x00%d", spec.Config.Name, spec.Workload, spec.SeedIdx)
}

// errKind classifies a cell error for the wire so retry classification
// survives process boundaries: bad traces stay permanent, supervisor
// cancels map back to the supervisor's cause, everything else rides as a
// plain (permanent) message.
func errKind(ctx context.Context, err error) string {
	switch {
	case errors.Is(err, sim.ErrBadTrace):
		return kindBadTrace
	case errors.Is(err, errCanceledBySupervisor) || ctx.Err() != nil:
		return kindCanceled
	}
	return ""
}

// chaosFromEnv parses EnvChaos ("seed=N,exit=RATE") into a fault plan
// whose Panic kind means "hard-exit the worker process". Unset or
// malformed values disable injection (chaos is a test harness; a typo
// must not fail production cells).
func chaosFromEnv() *faultinject.Plan {
	v := os.Getenv(EnvChaos)
	if v == "" {
		return nil
	}
	plan := &faultinject.Plan{}
	for _, kv := range strings.Split(v, ",") {
		k, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil
			}
			plan.Seed = n
		case "exit":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return nil
			}
			plan.PanicRate = r
		case "maxfaults":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil
			}
			plan.MaxFaultsPerCell = n
		default:
			return nil
		}
	}
	if !plan.Enabled() {
		return nil
	}
	return plan
}
