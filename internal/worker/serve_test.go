package worker

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"specsched/internal/config"
	"specsched/internal/sim"
)

// serveHarness drives Serve in-process over two pipes, standing in for
// the supervisor: the race detector then sees the worker side, and the
// protocol-error branches are reachable.
type serveHarness struct {
	t      *testing.T
	in     *io.PipeWriter // the supervisor's end of the worker's stdin
	frames chan frame     // every frame the worker wrote, in order; buffered past any beat burst
	done   chan error     // Serve's return value
}

func startServe(t *testing.T) *serveHarness {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	h := &serveHarness{t: t, in: inW, frames: make(chan frame, 1024), done: make(chan error, 1)}
	go func() {
		h.done <- Serve(inR, outW)
		outW.Close()
	}()
	go func() {
		defer close(h.frames)
		for {
			var f frame
			if readFrame(outR, &f) != nil {
				return
			}
			h.frames <- f
		}
	}()
	t.Cleanup(func() {
		inW.Close()
		inR.Close()
		outR.Close()
	})
	return h
}

// failAfter is a worker output whose writes fail once n have succeeded.
type failAfter struct{ n atomic.Int64 }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n.Add(-1) < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestServeEndsReaderOnWriteFailure: when a result cannot be sent, Serve
// returns the error only after its reader has stopped reading the
// supervisor's end of stdin — a later write there finds the pipe closed
// instead of feeding a reader left behind.
func TestServeEndsReaderOnWriteFailure(t *testing.T) {
	inR, inW := io.Pipe()
	defer inW.Close()
	out := &failAfter{}
	out.n.Store(2) // the hello frame: header and body
	done := make(chan error, 1)
	go func() { done <- Serve(inR, out) }()

	spec, _ := serveSpec(t, testMeasure)
	if err := writeFrame(inW, &frame{Type: frameRun, ID: 1, Cell: spec}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil after its result write failed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after its result write failed")
	}
	if err := writeFrame(inW, &frame{Type: frameCancel, ID: 1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to the worker's stdin after Serve returned = %v, want %v", err, io.ErrClosedPipe)
	}
}

func (h *serveHarness) send(f *frame) {
	h.t.Helper()
	if err := writeFrame(h.in, f); err != nil {
		h.t.Fatalf("send %s frame: %v", f.Type, err)
	}
}

// next returns the worker's next frame, failing the test if none arrives
// within a generous bound.
func (h *serveHarness) next() frame {
	h.t.Helper()
	select {
	case f, ok := <-h.frames:
		if !ok {
			h.t.Fatal("worker output closed")
		}
		return f
	case <-time.After(30 * time.Second):
		h.t.Fatal("no frame from the worker")
	}
	return frame{}
}

// result returns the result of request id, checking that every frame
// before it is a beat for that request.
func (h *serveHarness) result(id uint64) frame {
	h.t.Helper()
	for {
		f := h.next()
		if f.ID != id {
			h.t.Fatalf("got a %s frame for request %d while request %d runs", f.Type, f.ID, id)
		}
		switch f.Type {
		case frameBeat:
			continue
		case frameResult:
			return f
		}
		h.t.Fatalf("unexpected %q frame from the worker", f.Type)
	}
}

// exit waits for Serve to return.
func (h *serveHarness) exit() error {
	h.t.Helper()
	select {
	case err := <-h.done:
		return err
	case <-time.After(30 * time.Second):
		h.t.Fatal("Serve did not return")
	}
	return nil
}

func serveSpec(t *testing.T, measure int64) (*cellSpec, sim.Cell) {
	t.Helper()
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	spec := &cellSpec{
		Config: cfg, ConfigDigest: cfg.Digest(), Workload: "gzip",
		Warmup: testWarmup, Measure: measure, Attempt: 1, BeatEveryMS: 5,
	}
	return spec, sim.Cell{Config: cfg, Workload: "gzip"}
}

// TestServeProtocol pins the worker side of the protocol: hello first,
// one result per run equal to the in-process simulation, cancel frames
// that name no running cell writing nothing, a cancel for the running
// cell answered promptly with a canceled result, a closed stdin ending
// Serve cleanly, and a frame the supervisor never sends — a beat, a run
// without a cell, a body that is not JSON — ending it with an error.
func TestServeProtocol(t *testing.T) {
	t.Run("session", testServeSession)
	bad := map[string]func(h *serveHarness){
		"beat":          func(h *serveHarness) { h.send(&frame{Type: frameBeat, ID: 1}) },
		"run sans cell": func(h *serveHarness) { h.send(&frame{Type: frameRun, ID: 1}) },
		"garbage": func(h *serveHarness) {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 1)
			if _, err := h.in.Write(append(hdr[:], '{')); err != nil {
				h.t.Fatal(err)
			}
		},
	}
	for name, send := range bad {
		t.Run("rejects "+name, func(t *testing.T) {
			h := startServe(t)
			if f := h.next(); f.Type != frameHello {
				t.Fatalf("first frame = %+v, want hello", f)
			}
			send(h)
			if err := h.exit(); err == nil {
				t.Fatal("Serve accepted the frame")
			}
		})
	}
}

func testServeSession(t *testing.T) {
	h := startServe(t)
	if f := h.next(); f.Type != frameHello || f.Version != ProtocolVersion {
		t.Fatalf("first frame = %+v, want hello with version %d", f, ProtocolVersion)
	}

	spec, cell := serveSpec(t, testMeasure)
	want, err := sim.SimulateCell(context.Background(), cell, testWarmup, testMeasure, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.send(&frame{Type: frameCancel, ID: 99}) // unknown while idle: ignored
	h.send(&frame{Type: frameRun, ID: 1, Cell: spec})
	if f := h.result(1); f.Error != "" || !reflect.DeepEqual(f.Run, want) {
		t.Fatalf("run 1: error %q, run %+v; want %+v", f.Error, f.Run, want)
	}

	// A cancel for the finished cell is stale: the next frame must belong
	// to run 2, which also shows run 1 produced exactly one result.
	h.send(&frame{Type: frameCancel, ID: 1})
	big, _ := serveSpec(t, 1<<40) // would run effectively forever
	h.send(&frame{Type: frameRun, ID: 2, Cell: big})
	if f := h.next(); f.Type != frameBeat || f.ID != 2 {
		t.Fatalf("first frame of run 2 = %+v, want a beat", f)
	}
	start := time.Now()
	h.send(&frame{Type: frameCancel, ID: 2})
	if f := h.result(2); f.Kind != kindCanceled || f.Run != nil {
		t.Fatalf("canceled run 2: kind %q, error %q, run %v; want kind %q", f.Kind, f.Error, f.Run, kindCanceled)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancel took %v to take effect", d)
	}

	h.in.Close()
	if err := h.exit(); err != nil {
		t.Fatalf("Serve after stdin closed = %v, want nil", err)
	}
}
