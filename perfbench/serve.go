package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"specsched"
	"specsched/internal/service"
	"specsched/results"
)

// serveConfigs and benchWorkloads span the serve job set: a fresh job is
// one (config, workload) cell; a hit spec covers one workload on all six
// configs, so a hit does enough work (six cached cells streamed) that
// scheduler and GC jitter of a few hundred microseconds does not decide its
// latency.
var serveConfigs = figsConfigs

// serveCacheEntries bounds the daemon's cell cache. The hit set (36 cells)
// plus every fresh cell a run submits (about 2000 at 70 jobs/s for 50 s)
// stays far below it, even on a much faster host, so nothing is evicted:
// an eviction regression would show as hit jobs turning into simulations,
// failing the hit check and raising hit latency.
const serveCacheEntries = 1 << 16

// serveBench is the serve workload: an in-process daemon behind a loopback
// HTTP server. The closed-loop client submits a small SweepSpec and reads
// its NDJSON cell stream to the end. A fresh job carries a warm-up
// window no other job uses, so it has a new dedup key: it simulates and
// fills the cache. A hit job resubmits a spec set-up already ran and is
// served from the daemon's cell cache.
type serveBench struct {
	o        options
	warmup   int64
	srv      *service.Server
	ts       *httptest.Server
	client   *http.Client
	hitSpecs []specsched.SweepSpec
	ref      [][]results.Run // cells of each hit spec's set-up run
}

func setupServe(ctx context.Context, o options, rep int) (bench, error) {
	// No StateDir: the daemon keeps its state in memory. The benchmark may
	// write only inside its checkout, which sits on a disk whose fsync
	// latency (0.8 ms median, up to 6 ms measured) would dominate hit
	// latency and make it bimodal; the traced run times the checkpoint
	// layer on its own instead.
	srv, err := service.New(service.Config{
		MaxRunning:   2,
		SweepJobs:    1,
		MaxWorkers:   -1, // cells in-process
		CacheEntries: serveCacheEntries,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	b := &serveBench{
		o:      o,
		warmup: windowWarmup(o.scale.serveWarmup, o.seed),
		srv:    srv,
		ts:     ts,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}},
	}
	if code, err := b.get(ctx, "/healthz"); err != nil || code != http.StatusOK {
		b.close()
		return nil, fmt.Errorf("daemon not healthy: %d %v", code, err)
	}
	for _, wl := range benchWorkloads {
		b.hitSpecs = append(b.hitSpecs, b.spec(serveConfigs, wl, b.warmup))
	}
	b.ref = make([][]results.Run, len(b.hitSpecs))
	idx := make([]int, len(b.hitSpecs))
	for i := range idx {
		idx[i] = i
	}
	err = forEach(ctx, runtime.NumCPU(), idx, func(i int) error {
		j, runs := b.submit(ctx, i%runtime.NumCPU(), b.hitSpecs[i])
		if j.fail != "" {
			return fmt.Errorf("hit spec %d: %s", i, j.fail)
		}
		b.ref[i] = runs
		return nil
	})
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) spec(configs []string, wl string, warmup int64) specsched.SweepSpec {
	measure := b.o.scale.serveMeasure
	return specsched.SweepSpec{Configs: configs, Workloads: []string{wl},
		Warmup: &warmup, Measure: &measure, Jobs: 1}
}

func (b *serveBench) get(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// submit POSTs spec as client and reads the job's NDJSON cell stream until
// the daemon closes it, which it does once the job is terminal.
func (b *serveBench) submit(ctx context.Context, client int, spec specsched.SweepSpec) (job, []results.Run) {
	j := job{start: time.Now()}
	fail := func(format string, args ...any) (job, []results.Run) {
		j.end = time.Now()
		j.fail = fmt.Sprintf(format, args...)
		return j, nil
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail("%v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ClientHeader, fmt.Sprintf("client-%d", client))
	resp, err := b.client.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail("submit: HTTP %d %v", resp.StatusCode, err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/v1/sweeps/"+st.ID+"/cells", nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err = b.client.Do(req)
	if err != nil {
		return fail("cells: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail("cells: HTTP %d", resp.StatusCode)
	}
	var runs []results.Run
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if j.cells == 0 {
			j.firstCell = time.Now()
		}
		j.cells++
		var rec service.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fail("cell line: %v", err)
		}
		if rec.Error != "" || rec.Run == nil {
			return fail("cell %s/%s: %q", rec.Config, rec.Workload, rec.Error)
		}
		runs = append(runs, *rec.Run)
	}
	j.end = time.Now()
	if err := sc.Err(); err != nil {
		return fail("cells: %v", err)
	}
	if j.cells != len(spec.Configs)*len(spec.Workloads) {
		return fail("job %s streamed %d cells", st.ID, j.cells)
	}
	return j, runs
}

func (b *serveBench) do(ctx context.Context, idx int) job {
	// Each block holds one fresh job per (config, workload) and as many
	// hits, each hit spec six times.
	slot := planSlot(b.o.seed, idx, b.block(), 0x5e7e)
	fresh := slot%2 == 0
	i := slot / 2 % len(b.hitSpecs)
	spec := b.hitSpecs[i]
	if fresh {
		// A warm-up window no other job uses: a new dedup key, the same work.
		cfg := serveConfigs[slot/2/len(b.hitSpecs)]
		spec = b.spec([]string{cfg}, spec.Workloads[0], b.warmup+1+int64(idx))
	}
	j, runs := b.submit(ctx, 0, spec)
	j.fresh = fresh
	switch {
	case j.fail != "":
	case fresh:
		j.uops = int64(len(runs)) * (*spec.Warmup + *spec.Measure)
		if idx < b.o.scale.digestJobs {
			j.digest = runs
		}
	case !sameRuns(runs, b.ref[i]):
		j.fail = fmt.Sprintf("hit spec %d cells differ from its set-up run", i)
	}
	return j
}

func (b *serveBench) block() int { return 2 * len(serveConfigs) * len(benchWorkloads) }

func (b *serveBench) records() []results.Run {
	var runs []results.Run
	for _, r := range b.ref {
		runs = append(runs, r...)
	}
	return runs
}

func (b *serveBench) digestsJobs() bool { return true }

func (b *serveBench) layers() layerPlan {
	return layerPlan{configs: serveConfigs, warmup: b.warmup, measure: b.o.scale.serveMeasure,
		cache: b.srv.Cache(), checkpoint: true, serve: b}
}

func (b *serveBench) close() {
	b.ts.Close()
	b.srv.Close()
	b.client.CloseIdleConnections()
}
