package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"specsched"
	"specsched/results"
)

// testSpec is a small 4-cell grid (2 configs × 2 workloads × 1 seed) that
// keeps every service test fast while still exercising merge order,
// dedup, and checkpointing.
func testSpec() specsched.SweepSpec {
	w, m := int64(500), int64(2000)
	return specsched.SweepSpec{
		Configs:   []string{"Baseline_0", "SpecSched_4"},
		Workloads: []string{"gzip", "hmmer"},
		Seeds:     1,
		Jobs:      2,
		Warmup:    &w,
		Measure:   &m,
	}
}

type cellKey struct {
	config, workload string
	seed             int
}

// runBaseline computes the ground truth for a spec through the plain
// public façade — exactly what the daemon's results must be bit-identical
// to.
func runBaseline(t *testing.T, spec specsched.SweepSpec) map[cellKey]results.Run {
	t.Helper()
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[cellKey]results.Run, len(cells))
	for _, c := range cells {
		r := c.Run
		r.Elapsed = 0
		out[cellKey{c.Config, c.Workload, c.Seed}] = r
	}
	return out
}

// checkCells asserts a job's cell log matches the baseline bit for bit.
func checkCells(t *testing.T, name string, cells []CellRecord, want map[cellKey]results.Run) {
	t.Helper()
	if len(cells) != len(want) {
		t.Fatalf("%s: %d cells, want %d", name, len(cells), len(want))
	}
	for _, rec := range cells {
		if rec.Error != "" {
			t.Fatalf("%s: cell %s/%s/%d failed: %s", name, rec.Config, rec.Workload, rec.Seed, rec.Error)
		}
		wantRun, ok := want[cellKey{rec.Config, rec.Workload, rec.Seed}]
		if !ok {
			t.Fatalf("%s: unexpected cell %s/%s/%d", name, rec.Config, rec.Workload, rec.Seed)
		}
		got := *rec.Run
		got.Elapsed = 0
		if got != wantRun {
			t.Fatalf("%s: cell %s/%s/%d not bit-identical to a standalone Sweep.Run", name, rec.Config, rec.Workload, rec.Seed)
		}
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
}

// TestServiceDedupAcrossJobs is the cross-job dedup contract the daemon
// exists for: two concurrent jobs over the same grid produce results
// bit-identical to independent standalone runs while simulating each
// distinct cell exactly once between them — the saving visible in the
// jobs' dedup counters and the shared cache's stats.
func TestServiceDedupAcrossJobs(t *testing.T) {
	spec := testSpec()
	want := runBaseline(t, spec)

	srv, err := New(Config{MaxRunning: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	j1, err := srv.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Submit("bob", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	waitDone(t, j2)

	grid := len(want)
	total := 0
	deduped := 0
	for _, j := range []*Job{j1, j2} {
		st := j.Status(false)
		if st.State != JobDone {
			t.Fatalf("job %s finished %s: %s", j.ID, st.State, st.Error)
		}
		cells, _, _ := j.cellsFrom(0)
		checkCells(t, "job "+j.ID, cells, want)
		total += st.DoneCells
		deduped += st.DedupedCells
	}
	if total != 2*grid {
		t.Fatalf("jobs completed %d cells, want %d", total, 2*grid)
	}
	// The whole point: 2×grid cells delivered, only grid simulated.
	if deduped != grid {
		t.Fatalf("jobs deduped %d cells, want %d (every cell of one job)", deduped, grid)
	}
	cs := srv.Cache().Stats()
	if cs.Simulated != int64(grid) {
		t.Fatalf("cache simulated %d cells for two jobs, want %d", cs.Simulated, grid)
	}
	if cs.Hits+cs.Deduped != int64(grid) {
		t.Fatalf("cache saved %d+%d cells, want %d", cs.Hits, cs.Deduped, grid)
	}
}

// TestServiceSubmitValidation: a bad spec is rejected at submission with
// the façade's typed sentinels — it never enters the queue.
func TestServiceSubmitValidation(t *testing.T) {
	srv, err := New(Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		name string
		spec specsched.SweepSpec
		want error
	}{
		{"no configs", specsched.SweepSpec{Workloads: []string{"gzip"}}, specsched.ErrInvalidConfig},
		{"unknown config", specsched.SweepSpec{Configs: []string{"Baseline_9"}}, specsched.ErrInvalidConfig},
		{"unknown workload", specsched.SweepSpec{Configs: []string{"Baseline_0"}, Workloads: []string{"nope"}}, specsched.ErrUnknownWorkload},
		{"negative seeds", specsched.SweepSpec{Configs: []string{"Baseline_0"}, Seeds: -1}, specsched.ErrInvalidConfig},
	}
	for _, tc := range cases {
		j, err := srv.Submit("c", tc.spec)
		if j != nil || err == nil {
			t.Fatalf("%s: submission was accepted", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v does not match %v", tc.name, err, tc.want)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions entered the job table: %d jobs", len(jobs))
	}
}

// TestServiceQueueBoundsAndFairness drives the queue machinery without a
// dispatcher (hand-built Server, so nothing dequeues underneath the
// assertions): the queue bound rejects with ErrQueueFull, Close rejects
// with ErrClosed, and nextLocked serves clients round-robin — a client
// flooding the queue only delays its own jobs.
func TestServiceQueueBoundsAndFairness(t *testing.T) {
	s := &Server{
		cfg:    Config{MaxQueue: 5},
		jobs:   make(map[string]*Job),
		queues: make(map[string][]*Job),
	}

	var submitted []*Job
	for _, client := range []string{"a", "a", "a", "b", "c"} {
		j, err := s.Submit(client, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
	}
	if _, err := s.Submit("d", testSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("6th submission into a 5-queue: %v, want ErrQueueFull", err)
	}

	// a1 a2 a3 b1 c1 submitted; round-robin serves a1 b1 c1 a2 a3.
	wantOrder := []*Job{submitted[0], submitted[3], submitted[4], submitted[1], submitted[2]}
	s.mu.Lock()
	for i, want := range wantOrder {
		got := s.nextLocked()
		if got != want {
			s.mu.Unlock()
			t.Fatalf("dispatch %d: got %s (client %s), want %s (client %s)",
				i, got.ID, got.Client, want.ID, want.Client)
		}
	}
	if s.nextLocked() != nil {
		s.mu.Unlock()
		t.Fatal("drained queue still serves jobs")
	}
	s.mu.Unlock()

	s.closed = true
	if _, err := s.Submit("a", testSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after close: %v, want ErrClosed", err)
	}
}

// TestServiceCancel: canceling a queued job finishes it immediately
// without running; canceling the running job cancels its sweep context.
func TestServiceCancel(t *testing.T) {
	srv, err := New(Config{MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// j1 occupies the single run slot (full Table 2 suite keeps it busy
	// long enough); j2 sits queued behind it.
	w, m := int64(500), int64(4000)
	heavy := specsched.SweepSpec{Configs: []string{"Baseline_0"}, Warmup: &w, Measure: &m}
	j1, err := srv.Submit("alice", heavy)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Submit("bob", testSpec())
	if err != nil {
		t.Fatal(err)
	}

	srv.Cancel(j2)
	waitDone(t, j2)
	if st := j2.Status(false); st.State != JobCanceled || st.DoneCells != 0 {
		t.Fatalf("queued job canceled to state %s with %d cells, want canceled/0", st.State, st.DoneCells)
	}

	srv.Cancel(j1)
	waitDone(t, j1)
	if st := j1.State(); st != JobCanceled && st != JobDone {
		t.Fatalf("running job canceled to state %s", st)
	}
	// Canceling a terminal job is a no-op.
	srv.Cancel(j2)
	if st := j2.State(); st != JobCanceled {
		t.Fatalf("re-cancel changed a terminal job to %s", st)
	}
}

// TestServiceRestartRecovery is the daemon restart contract, in process:
// a server killed mid-job leaves a "running" manifest and a checkpoint;
// the next server re-enqueues the job and completes it bit-identically.
// A *finished* job recovered on a third start, from a manifest carrying
// spec keys older daemons wrote, replays entirely from its checkpoint —
// every cell served cached, nothing re-simulated.
func TestServiceRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Seeds = 2 // 8 cells: room for the shutdown to land mid-sweep
	want := runBaseline(t, spec)

	srv1, err := New(Config{StateDir: dir, MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := srv1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	id := j1.ID
	// Let it make some progress, then take the daemon down mid-run. (If
	// the tiny sweep happens to finish first, recovery still replays it
	// from checkpoint — both paths must converge on identical results.)
	deadline := time.Now().Add(time.Minute)
	for {
		if st := j1.Status(false); st.DoneCells >= 1 || st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress (state %s)", j1.State())
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Close()

	srv2, err := New(Config{StateDir: dir, MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := srv2.Job(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	waitDone(t, j2)
	st := j2.Status(false)
	if st.State != JobDone {
		t.Fatalf("recovered job finished %s: %s", st.State, st.Error)
	}
	cells, _, _ := j2.cellsFrom(0)
	checkCells(t, "recovered job", cells, want)
	srv2.Close()

	// Third start: the job is done on disk; it replays from checkpoint so
	// its cells are streamable again, without simulating anything. Its
	// manifest is rewritten as a daemon persisted it while SweepSpec still
	// had its scheduler and time-skip knobs: manifests are read leniently,
	// so the old keys are ignored (a POSTed spec with them is rejected).
	path := filepath.Join(dir, id+".job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	old := m["spec"].(map[string]any)
	old["scheduler"], old["timeskip"] = "event", true
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, err := New(Config{StateDir: dir, MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	j3, ok := srv3.Job(id)
	if !ok {
		t.Fatalf("done job %s not recovered", id)
	}
	waitDone(t, j3)
	st = j3.Status(false)
	if st.State != JobDone {
		t.Fatalf("replayed job finished %s: %s", st.State, st.Error)
	}
	if st.CachedCells != len(want) {
		t.Fatalf("replayed job served %d cells from checkpoint, want all %d", st.CachedCells, len(want))
	}
	cells, _, _ = j3.cellsFrom(0)
	checkCells(t, "replayed job", cells, want)
}
