package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsched"
)

// tinySpec is a one-cell job whose dedup key is picked by k (its warm-up
// window): submitting a handful of distinct k over and over makes almost
// every job a cell-cache hit.
func tinySpec(k int) specsched.SweepSpec {
	w, m := int64(k), int64(200)
	return specsched.SweepSpec{
		Configs:   []string{"Baseline_0"},
		Workloads: []string{"gzip"},
		Jobs:      1,
		Warmup:    &w,
		Measure:   &m,
	}
}

// runJobs submits n tiny jobs one after another and waits for each.
func runJobs(t *testing.T, s *Server, n, keys int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j, err := s.Submit("soak", tinySpec(i%keys))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := j.Status(false); st.State != JobDone {
			t.Fatalf("job %d finished %s: %s", i, st.State, st.Error)
		}
	}
}

// waitRetired waits until every finished job has passed through the
// retention bound: a job's Done closes before finishJob retires it.
func waitRetired(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		settled := len(s.jobs) == len(s.finished)
		s.mu.Unlock()
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("finished jobs never retired")
		}
		time.Sleep(time.Millisecond)
	}
}

// liveHeap is the heap still reachable once the server has settled.
func liveHeap(t *testing.T, s *Server) uint64 {
	t.Helper()
	waitRetired(t, s)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServiceRetentionSoak runs 10k tiny jobs through one server. The job
// table never holds more than maxTerminalJobs finished jobs, and the live
// heap stays flat: without the bound every finished job kept its cell log,
// spec and sweep, about 3 KB a job.
func TestServiceRetentionSoak(t *testing.T) {
	srv, err := New(Config{MaxRunning: 2, CacheEntries: 16, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const first, total = 1000, 10000
	runJobs(t, srv, first, 8)
	before := liveHeap(t, srv)
	for done := first; done < total; done += first {
		runJobs(t, srv, first, 8)
		// One job at a time: at most the one just finished waits to retire.
		if n := len(srv.Jobs()); n > maxTerminalJobs+1 {
			t.Fatalf("after %d jobs the table holds %d, want at most %d", done+first, n, maxTerminalJobs+1)
		}
	}
	after := liveHeap(t, srv)
	if n := len(srv.Jobs()); n != maxTerminalJobs {
		t.Fatalf("settled table holds %d jobs, want %d", n, maxTerminalJobs)
	}
	perJob := (float64(after) - float64(before)) / (total - first)
	t.Logf("live heap %d B after %d jobs, %d B after %d: %.1f B/job", before, first, after, total, perJob)
	if perJob >= 64 {
		t.Fatalf("live heap grew %.1f B per job between job %d and %d, want < 64", perJob, first, total)
	}
	if got := srv.m.jobsForgotten.Load(); got != total-maxTerminalJobs {
		t.Fatalf("forgotten counter %d, want %d", got, total-maxTerminalJobs)
	}
}

// countFiles counts the state directory's files with the given suffix.
func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestServiceRetentionStateDir: eviction deletes a forgotten job's
// manifest and checkpoint, DELETE's forget does too, and a restart over a
// state directory an older daemon never pruned recovers only the newest
// maxTerminalJobs finished jobs, deleting the rest.
func TestServiceRetentionStateDir(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{StateDir: dir, MaxRunning: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	runJobs(t, srv1, 300, 4)
	waitRetired(t, srv1)
	if n := countFiles(t, dir, ".job"); n != maxTerminalJobs {
		t.Fatalf("state dir holds %d manifests after 300 jobs, want %d", n, maxTerminalJobs)
	}
	if n := countFiles(t, dir, ".ckpt"); n > maxTerminalJobs {
		t.Fatalf("state dir holds %d checkpoints after 300 jobs, want at most %d", n, maxTerminalJobs)
	}

	jobs := srv1.Jobs()
	victim := jobs[len(jobs)-1]
	if !srv1.forget(victim) {
		t.Fatal("forget of a done job reported false")
	}
	if srv1.forget(victim) {
		t.Fatal("second forget of the same job reported true")
	}
	for _, path := range []string{srv1.manifestPath(victim.ID), srv1.checkpointPath(victim.ID)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("forgotten job's %s still exists (%v)", filepath.Base(path), err)
		}
	}
	srv1.Close()

	// Twenty finished manifests older than every kept job, as a daemon
	// without the bound would have left them.
	const stale = 20
	for i := 0; i < stale; i++ {
		data, err := json.Marshal(manifest{
			ID: fmt.Sprintf("jstale%02d", i), Client: "old", Seq: uint64(i),
			State: JobFailed, Error: "old failure", Spec: tinySpec(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("jstale%02d.job", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, err := New(Config{StateDir: dir, MaxRunning: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	recovered := srv2.Jobs()
	if len(recovered) != maxTerminalJobs {
		t.Fatalf("restart recovered %d jobs, want %d", len(recovered), maxTerminalJobs)
	}
	// 255 kept + 20 stale: the 19 oldest stale manifests are pruned.
	for i := 0; i < stale; i++ {
		_, err := os.Stat(filepath.Join(dir, fmt.Sprintf("jstale%02d.job", i)))
		if pruned := os.IsNotExist(err); pruned != (i < stale-1) {
			t.Fatalf("stale manifest %d: pruned %v (%v)", i, pruned, err)
		}
	}
	for _, j := range recovered {
		waitDone(t, j)
	}
	waitRetired(t, srv2)
	if n := countFiles(t, dir, ".job"); n != maxTerminalJobs {
		t.Fatalf("state dir holds %d manifests after the restart, want %d", n, maxTerminalJobs)
	}
	if n := len(srv2.Jobs()); n != maxTerminalJobs {
		t.Fatalf("restarted server holds %d jobs once replayed, want %d", n, maxTerminalJobs)
	}
}

// TestServiceForgetConcurrent races DELETE-style forgets against jobs
// finishing (Done closes before a job retires) and against the metrics
// and listing readers: every job is forgotten exactly once, and neither
// the table, the finished FIFO nor the state directory keeps a trace.
func TestServiceForgetConcurrent(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, MaxRunning: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 40
	var wg sync.WaitGroup
	var forgotten atomic.Int64
	for i := 0; i < n; i++ {
		j, err := srv.Submit(fmt.Sprintf("c%d", i%3), tinySpec(i%4))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-j.Done()
				if srv.forget(j) {
					forgotten.Add(1)
				}
				srv.Jobs()
				srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			}()
		}
	}
	wg.Wait()
	if got := forgotten.Load(); got != n {
		t.Fatalf("%d forgets reported true for %d jobs", got, n)
	}
	waitRetired(t, srv)
	srv.mu.Lock()
	left, fifo := len(srv.jobs), len(srv.finished)
	srv.mu.Unlock()
	if left != 0 || fifo != 0 {
		t.Fatalf("after forgetting every job: %d in the table, %d in the finished FIFO", left, fifo)
	}
	if got := srv.m.jobsForgotten.Load(); got != n {
		t.Fatalf("forgotten counter %d, want %d", got, n)
	}
	// Streams and manifests are written by the job goroutines until they
	// exit; a forgotten job's files must not come back afterwards.
	srv.Close()
	if m, c := countFiles(t, dir, ".job"), countFiles(t, dir, ".ckpt"); m != 0 || c != 0 {
		t.Fatalf("state dir keeps %d manifests and %d checkpoints of forgotten jobs", m, c)
	}
}

// TestServiceForgetLeavesNoFiles: forgetting a done job whose checkpoint
// flushed more than once — by DELETE, and by the retention bound — leaves
// none of its files in the state directory.
func TestServiceForgetLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{StateDir: dir, MaxRunning: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w, m := int64(100), int64(200)
	spec := specsched.SweepSpec{
		Configs:   []string{"Baseline_0", "SpecSched_4"},
		Workloads: []string{"gzip", "mcf", "swim", "applu"},
		Seeds:     2,
		Jobs:      2,
		Warmup:    &w,
		Measure:   &m,
	}
	files := func(id string) []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, id+"*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	bigJob := func() *Job {
		t.Helper()
		j, err := srv.Submit("big", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := j.Status(false); st.State != JobDone || st.DoneCells != 16 {
			t.Fatalf("16-cell job finished %s with %d cells", st.State, st.DoneCells)
		}
		waitRetired(t, srv)
		for _, path := range []string{srv.manifestPath(j.ID), srv.checkpointPath(j.ID)} {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("done job's state file: %v", err)
			}
		}
		return j
	}

	j := bigJob()
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of a done job: %d", resp.StatusCode)
	}
	if names := files(j.ID); len(names) != 0 {
		t.Fatalf("job forgotten by DELETE left %v", names)
	}

	j = bigJob()
	runJobs(t, srv, maxTerminalJobs, 8)
	waitRetired(t, srv)
	if _, held := srv.Job(j.ID); held {
		t.Fatal("the retention bound kept the oldest finished job")
	}
	if names := files(j.ID); len(names) != 0 {
		t.Fatalf("job forgotten by the retention bound left %v", names)
	}
}

// TestServiceRestartRestoresDoneJobs is the restart contract for finished
// work, over HTTP: a daemon restarted on maxTerminalJobs done jobs and a
// few live ones, with MaxQueue 64, accepts a new submission at once (only
// the live jobs re-enqueue). Every done job comes back done, its /cells
// the same cells in the same order it served before with bit-identical
// counters, each from its checkpoint, or from its manifest for a cell that
// failed. A done job whose checkpoint is gone comes back failed as
// results_lost.
func TestServiceRestartRestoresDoneJobs(t *testing.T) {
	const live = 3
	dir := t.TempDir()
	cfg := Config{StateDir: dir, MaxQueue: 64, MaxRunning: 1, Logf: t.Logf}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	runJobs(t, srv1, maxTerminalJobs-1, 8)
	faulty := testSpec()
	faulty.Chaos = &specsched.Chaos{Seed: 1, CorruptTraceRate: 0.5}
	j, err := srv1.Submit("faulty", faulty)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(false); st.State != JobDone || st.FailedCells == 0 || st.FailedCells == st.TotalCells {
		t.Fatalf("faulty job: %s with %d of %d cells failed, want done with some failed", st.State, st.FailedCells, st.TotalCells)
	}
	waitRetired(t, srv1)
	before := map[string][]CellRecord{}
	for _, j := range srv1.Jobs() {
		before[j.ID] = getCells(t, ts1.URL, j.ID)
	}
	for i := 0; i < live; i++ {
		if _, err := srv1.Submit("live", longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	ts1.Close()
	srv1.Close()
	lostID := srv1.Jobs()[0].ID
	if err := os.Remove(srv1.checkpointPath(lostID)); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	spec, _ := json.Marshal(tinySpec(1000))
	resp, err := http.Post(ts2.URL+"/v1/sweeps", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission after the restart: %d, want 202", resp.StatusCode)
	}
	for id, want := range before {
		j, _ := srv2.Job(id)
		st := j.Status(false)
		if id == lostID {
			if st.State != JobFailed || errKind(j.err) != "results_lost" {
				t.Fatalf("done job without a checkpoint came back %s (%v), want failed, results_lost", st.State, j.err)
			}
			continue
		}
		if st.State != JobDone || st.CachedCells+st.FailedCells != len(want) || st.TotalCells != len(want) {
			t.Fatalf("job %s came back %s with %d cached and %d failed of %d cells, want done and all %d",
				id, st.State, st.CachedCells, st.FailedCells, st.TotalCells, len(want))
		}
		// Same cells and counters at the same indices, so a cursor taken
		// before the restart still points at the same cell; every cell
		// that succeeded now comes from the checkpoint.
		got := getCells(t, ts2.URL, id)
		for _, cells := range [][]CellRecord{got, want} {
			for i := range cells {
				if c := &cells[i]; c.Run != nil {
					c.Cached, c.Deduped, c.Attempts, c.Run.Elapsed = true, false, 0, 0
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s cells after the restart:\n%+v\nbefore:\n%+v", id, got, want)
		}
	}
}

// getCells reads a finished job's whole NDJSON /cells stream.
func getCells(t *testing.T, base, id string) []CellRecord {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []CellRecord
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var rec CellRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("job %s cells: %v", id, err)
		}
		out = append(out, rec)
	}
	return out
}
