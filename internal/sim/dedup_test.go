package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsched/internal/config"
	"specsched/internal/stats"
	"specsched/internal/traceio"
)

func TestDedupCacheHitAndShare(t *testing.T) {
	d := NewDedupCache(8)
	ctx := context.Background()
	want := &stats.Run{Cycles: 42}

	var calls atomic.Int64
	fn := func() (*stats.Run, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the sharing window
		return want, nil
	}

	const callers = 8
	srcs := make([]DedupSource, callers)
	runs := make([]*stats.Run, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, src, err := d.Do(ctx, "k", fn)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			runs[i], srcs[i] = run, src
		}(i)
	}
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", calls.Load())
	}
	executed := 0
	for i := range srcs {
		if runs[i] != want {
			t.Fatalf("caller %d got a different run", i)
		}
		if srcs[i] == DedupExecuted {
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("%d callers executed, want 1", executed)
	}

	if run, src, err := d.Do(ctx, "k", fn); err != nil || src != DedupHit || run != want {
		t.Fatalf("repeat call: run=%p src=%v err=%v, want LRU hit of %p", run, src, err, want)
	}
	st := d.Stats()
	if st.Executed != 1 || st.Hits != 1 || st.Shared != int64(callers-1) {
		t.Fatalf("stats %+v, want 1 executed, 1 hit, %d shared", st, callers-1)
	}
}

// TestDedupCacheOwnerFailureNotInherited: an owner that fails (its
// cancellation, its chaos injection, its retry budget) must not fail the
// waiters — they re-execute the key themselves, and errors never enter
// the LRU.
func TestDedupCacheOwnerFailureNotInherited(t *testing.T) {
	d := NewDedupCache(8)
	ctx := context.Background()

	ownerIn := make(chan struct{})
	ownerGo := make(chan struct{})
	ownerErr := errors.New("owner-only failure")
	go func() {
		d.Do(ctx, "k", func() (*stats.Run, error) {
			close(ownerIn)
			<-ownerGo
			return nil, ownerErr
		})
	}()
	<-ownerIn

	want := &stats.Run{Cycles: 7}
	done := make(chan struct{})
	var got *stats.Run
	var gotSrc DedupSource
	var gotErr error
	go func() {
		defer close(done)
		got, gotSrc, gotErr = d.Do(ctx, "k", func() (*stats.Run, error) { return want, nil })
	}()

	select {
	case <-done:
		t.Fatal("waiter returned before the owner resolved")
	case <-time.After(10 * time.Millisecond):
	}
	close(ownerGo)
	<-done
	if gotErr != nil {
		t.Fatalf("waiter inherited the owner's failure: %v", gotErr)
	}
	if gotSrc != DedupExecuted || got != want {
		t.Fatalf("waiter got src=%v run=%p, want to re-execute itself", gotSrc, got)
	}
	if st := d.Stats(); st.Executed != 2 {
		t.Fatalf("executed %d, want 2 (owner + retrying waiter)", st.Executed)
	}
}

// TestDedupCacheWaiterCancel: a canceled waiter unblocks with its own
// cancellation cause instead of waiting out a slow owner.
func TestDedupCacheWaiterCancel(t *testing.T) {
	d := NewDedupCache(8)
	ownerIn := make(chan struct{})
	ownerGo := make(chan struct{})
	defer close(ownerGo)
	go func() {
		d.Do(context.Background(), "k", func() (*stats.Run, error) {
			close(ownerIn)
			<-ownerGo
			return &stats.Run{}, nil
		})
	}()
	<-ownerIn

	cause := errors.New("my sweep was canceled")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, _, err := d.Do(ctx, "k", nil); !errors.Is(err, cause) {
		t.Fatalf("canceled waiter returned %v, want its own cause", err)
	}
}

func TestDedupCacheLRUEviction(t *testing.T) {
	d := NewDedupCache(2)
	ctx := context.Background()
	mk := func(i int) func() (*stats.Run, error) {
		return func() (*stats.Run, error) { return &stats.Run{Cycles: int64(i)}, nil }
	}
	for i := 0; i < 3; i++ {
		if _, src, err := d.Do(ctx, fmt.Sprintf("k%d", i), mk(i)); err != nil || src != DedupExecuted {
			t.Fatalf("fill %d: src=%v err=%v", i, src, err)
		}
	}
	// k0 is the eviction victim; k1, k2 remain.
	if _, src, _ := d.Do(ctx, "k0", mk(0)); src != DedupExecuted {
		t.Fatalf("evicted key served from cache (src=%v)", src)
	}
	if _, src, _ := d.Do(ctx, "k2", mk(2)); src != DedupHit {
		t.Fatalf("retained key not served from cache (src=%v)", src)
	}
	if st := d.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", st.Entries)
	}
}

// TestDedupKeyIdentity: the key must fold in exactly the inputs that
// determine a cell's result — and nothing that doesn't exist yet, like
// the config *name* alone (the digest covers renames-with-changes).
func TestDedupKeyIdentity(t *testing.T) {
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	base := DedupKey(Cell{Config: cfg, Workload: "gzip", SeedIdx: 0}, 100, 400, nil)

	if k := DedupKey(Cell{Config: cfg, Workload: "gzip", SeedIdx: 0}, 100, 400, nil); k != base {
		t.Fatal("identical cells must share a key")
	}
	if k := DedupKey(Cell{Config: cfg, Workload: "gzip", SeedIdx: 1}, 100, 400, nil); k == base {
		t.Fatal("seed index not in the key")
	}
	if k := DedupKey(Cell{Config: cfg, Workload: "hmmer", SeedIdx: 0}, 100, 400, nil); k == base {
		t.Fatal("workload not in the key")
	}
	if k := DedupKey(Cell{Config: cfg, Workload: "gzip", SeedIdx: 0}, 100, 500, nil); k == base {
		t.Fatal("window not in the key")
	}
	changed := cfg
	changed.IssueWidth++
	if k := DedupKey(Cell{Config: changed, Workload: "gzip", SeedIdx: 0}, 100, 400, nil); k == base {
		t.Fatal("config contents not in the key")
	}
	// A trace workload keys on the trace's content identity, not its name.
	traces := TraceSet{"gzip": {Name: "gzip"}}
	withTrace := DedupKey(Cell{Config: cfg, Workload: "gzip", SeedIdx: 0}, 100, 400, traces)
	if withTrace == base {
		t.Fatal("trace-backed workload shares a key with the synthetic profile")
	}
}

// TestDedupKeyBytes pins the exact key bytes, config digest included: the
// daemon's cell cache and its checkpoints key on them, so the encoding
// (and the digest behind it) may not drift between releases. The digest
// does change whenever CoreConfig's field set changes (it hashes %+v); it
// last did when the bitmap-vs-list ready-queue switch was removed, and
// stale checkpoint cells then miss the digest guard and re-simulate
// (TestCheckpointRejectsChangedConfig).
func TestDedupKeyBytes(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4_Crit")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DedupKey(Cell{Config: cfg, Workload: "mcf", SeedIdx: 2}, 20000, 100000, nil),
		"077a8eea010d71f2\x00profile:mcf\x002\x0020000\x00100000"; got != want {
		t.Errorf("profile key = %q, want %q", got, want)
	}
	traces := TraceSet{"gzip": {Name: "gzip", Header: traceio.Header{Digest: 0xbeef, Count: 80000, WrongPathSeed: 1<<63 + 5}}}
	if got, want := DedupKey(Cell{Config: cfg, Workload: "gzip"}, 100, 400, traces),
		"077a8eea010d71f2\x00trace:gzip/000000000000beef/80000/9223372036854775813\x000\x00100\x00400"; got != want {
		t.Errorf("trace key = %q, want %q", got, want)
	}
}

// TestDedupCacheOwnerDeathManyWaiters models a flight owner dying
// mid-execution — e.g. its job canceled, or its worker subprocess crashed
// past the retry budget — with a crowd of waiters parked on the flight.
// Exactly one waiter must re-execute the cell; the rest share its flight
// or hit the LRU; nobody inherits the dead owner's error; and the counters
// must account for every call without leaking.
func TestDedupCacheOwnerDeathManyWaiters(t *testing.T) {
	d := NewDedupCache(8)
	ctx := context.Background()

	ownerIn := make(chan struct{})
	ownerDie := make(chan struct{})
	ownerErr := errors.New("owner died mid-execution")
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		_, src, err := d.Do(ctx, "k", func() (*stats.Run, error) {
			close(ownerIn)
			<-ownerDie
			return nil, ownerErr
		})
		if src != DedupExecuted || !errors.Is(err, ownerErr) {
			t.Errorf("owner: src=%v err=%v, want its own execution error", src, err)
		}
	}()
	<-ownerIn

	// The re-executing waiter also blocks, so its siblings demonstrably
	// park on the *second* flight (DedupShared) rather than racing it.
	want := &stats.Run{Cycles: 1234}
	retryIn := make(chan struct{})
	retryGo := make(chan struct{})
	var reexecs atomic.Int64
	retryFn := func() (*stats.Run, error) {
		if reexecs.Add(1) == 1 {
			close(retryIn)
		}
		<-retryGo
		return want, nil
	}

	const waiters = 8
	srcs := make([]DedupSource, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, src, err := d.Do(ctx, "k", retryFn)
			if err != nil {
				t.Errorf("waiter %d inherited an error: %v", i, err)
			}
			if run != want {
				t.Errorf("waiter %d got run %+v, want the re-executed result", i, run)
			}
			srcs[i] = src
		}(i)
	}

	// Let the waiters park on the owner's flight, then kill the owner.
	time.Sleep(10 * time.Millisecond)
	close(ownerDie)
	<-ownerDone
	// One waiter wins the retry flight; release it once it is inside.
	<-retryIn
	time.Sleep(10 * time.Millisecond)
	close(retryGo)
	wg.Wait()

	if n := reexecs.Load(); n != 1 {
		t.Fatalf("%d waiters re-executed, want exactly 1", n)
	}
	executed, shared, hits := 0, 0, 0
	for _, src := range srcs {
		switch src {
		case DedupExecuted:
			executed++
		case DedupShared:
			shared++
		case DedupHit:
			hits++
		}
	}
	if executed != 1 {
		t.Fatalf("%d waiters report DedupExecuted, want 1", executed)
	}
	if shared+hits != waiters-1 {
		t.Fatalf("shared=%d hits=%d, want them to cover the other %d waiters", shared, hits, waiters-1)
	}

	// Counter accounting: every Do call is visible exactly once, the dead
	// owner's included; the failed flight left no cache entry behind —
	// only the re-executed success is retained.
	st := d.Stats()
	if st.Executed != 2 {
		t.Fatalf("Stats().Executed = %d, want 2 (owner + one retrying waiter)", st.Executed)
	}
	if st.Shared != int64(shared) || st.Hits != int64(hits) {
		t.Fatalf("Stats() counted shared=%d hits=%d, callers observed shared=%d hits=%d",
			st.Shared, st.Hits, shared, hits)
	}
	if st.Entries != 1 {
		t.Fatalf("Stats().Entries = %d, want 1 (the retried success only)", st.Entries)
	}
	// And the flight table is actually empty: a fresh call is a pure hit.
	if _, src, err := d.Do(ctx, "k", nil); err != nil || src != DedupHit {
		t.Fatalf("follow-up call: src=%v err=%v, want an LRU hit", src, err)
	}
}
