package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// runTraced is the --trace 1 run. After one set-up it runs the closed loop
// twice for half of --seconds each: first untraced, then with a span around
// every job (and, for serve, around the submit, queue-wait and stream steps
// of each job). trace_overhead_pct compares the two. It then drives each
// internal layer with the workload's own µ-op streams, presets and windows,
// records a span around every batch of calls, derives the per-layer metrics
// from the spans, and writes the spans to the output directory.
//
// The untraced run (runUntraced) never reaches this file: no span code is
// on its path.
func runTraced(ctx context.Context, o options, wl workload) (result, error) {
	rec := newRecorder()
	t0 := time.Now()
	b, err := wl.setup(ctx, o, 0)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	rec.add("setup", t0, time.Now(), -1, o.workload, 1)
	defer b.close()

	half := seconds(o.seconds / 2)
	plain := measure(ctx, b, half, 0)
	gc0 := readGC()
	traced := measure(ctx, tracedBench{b, rec}, half, len(plain.jobs))
	gc := readGC()

	res := checkPhase(o, b, plain)
	for _, j := range traced.jobs {
		res.Attempted++
		if j.fail != "" {
			res.Failed++
			fmt.Fprintf(o.log, "traced job %d failed: %s\n", j.idx, j.fail)
		}
	}

	plan := b.layers()
	m, err := driveLayers(ctx, o, rec, plan)
	if err != nil {
		res.Failed++
		fmt.Fprintf(o.log, "layer drive: %v\n", err)
	}
	res.Correct = res.Failed == 0

	// The overhead compares the workload's throughput metric: jobs for
	// serve, whose hit jobs simulate nothing, simulated µ-ops otherwise.
	rate := func(ph phase) float64 {
		var uops int64
		for _, j := range ph.jobs {
			uops += j.uops
		}
		if plan.serve != nil {
			return float64(len(ph.jobs)) / ph.elapsed.Seconds()
		}
		return float64(uops) / ph.elapsed.Seconds()
	}
	if base := rate(plain); base > 0 {
		m["trace_overhead_pct"] = 100 * (base - rate(traced)) / base
	}
	// Both halves: a job's span costs far less than the job, and the p95
	// needs the samples.
	fresh, hit := latencies(phase{jobs: append(plain.jobs, traced.jobs...)})
	m["job.fresh_p95_ms"] = percentile(fresh, 95)
	m["job.hit_p95_ms"] = percentile(hit, 95)
	m["host.gc_pause_ms"] = gc.pauseSec*1e3 - gc0.pauseSec*1e3
	m["host.gc_cycles"] = float64(gc.cycles - gc0.cycles)

	res.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
		fmt.Fprintf(o.log, "  %-30s %14.4f %s\n", lm.name, m[lm.name], lm.unit)
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.log, "%d spans written to %s\n", len(rec.spans), path)
	return res, nil
}

// tracedBench records a span around each job, plus serve's per-step spans
// from the timestamps the job reports.
type tracedBench struct {
	bench
	rec *recorder
}

func (t tracedBench) do(ctx context.Context, idx int) job {
	id := fmt.Sprintf("job-%d", idx)
	s := t.rec.begin("job", -1, id)
	j := t.bench.do(ctx, idx)
	t.rec.end(s, int64(j.cells))
	if !j.accepted.IsZero() {
		t.rec.add("service.submit", j.start, j.accepted, s, id, 1)
	}
	if !j.firstCell.IsZero() {
		if j.fresh {
			t.rec.add("service.queue_wait", j.accepted, j.firstCell, s, id, 1)
		}
		t.rec.add("service.stream", j.firstCell, j.end, s, id, int64(j.cells))
	}
	return j
}

// gcReading is the runtime's GC cycle count and total stop-the-world GC
// pause time at one instant.
type gcReading struct {
	cycles   uint64
	pauseSec float64
}

func readGC() gcReading {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var g gcReading
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			g.pauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return g
}
