package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"syscall"
	"time"

	"specsched/results"
)

// bench is one set-up workload instance, ready to run jobs.
type bench interface {
	// do runs job idx of the seeded plan.
	do(ctx context.Context, idx int) job
	// block is the number of jobs in one block of the plan (see planSlot).
	block() int
	// records returns the reference records the output digest covers, in
	// a fixed order.
	records() []results.Run
	// digestsJobs reports whether the digest also covers the records of
	// the first o.scale.digestJobs jobs (serve's fresh jobs, whose windows
	// no set-up run shares).
	digestsJobs() bool
	// layers describes what the traced run drives layer by layer.
	layers() layerPlan
	close()
}

// workload builds a bench; one call is one set-up.
type workload struct {
	setup func(ctx context.Context, o options, rep int) (bench, error)
}

var workloads = map[string]workload{
	"figs":  {setupFigs},
	"serve": {setupServe},
}

// benchWorkloads are the six Table 2 workloads every workload draws on:
// two compute-bound (hmmer, gzip), two branchy (gzip, xalancbmk) and three
// memory-bound ones (swim, libquantum, mcf).
var benchWorkloads = []string{"swim", "hmmer", "xalancbmk", "libquantum", "mcf", "gzip"}

// job is the outcome of one closed-loop job.
type job struct {
	idx   int
	fresh bool
	// start is when the job was issued and end when its last cell came
	// back. accepted (POST answered) and firstCell (first cell line read)
	// are set by serve only.
	start, accepted, firstCell, end time.Time
	cells                           int
	uops                            int64         // µ-ops simulated for the job
	digest                          []results.Run // serve: fresh records inside the digest range
	fail                            string        // why the job failed; "" when it did not
}

func (j job) latency() time.Duration { return j.end.Sub(j.start) }

// phase is one timed closed loop.
type phase struct {
	jobs    []job // in index order
	elapsed time.Duration
}

// setupAll performs the workload's set-up o.scale.setupReps times and keeps
// the last instance. setup_s is the median of the set-up durations, so one
// slow set-up does not decide the metric.
func setupAll(ctx context.Context, o options, wl workload) (bench, float64, error) {
	var durs []float64
	var b bench
	for rep := 0; rep < o.scale.setupReps; rep++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := wl.setup(ctx, o, rep)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		b = nb
	}
	fmt.Fprintf(o.log, "set-up seconds per repetition: %.3f\n", durs)
	return b, median(durs), nil
}

// measure runs the closed loop for d: one client runs job after job in
// index order. Once d has passed, it finishes the plan's current block and
// stops, so a phase runs whole blocks (firstIdx must start one): every
// phase has the same job mix, and only the order of the jobs depends on
// the seed. One client leaves the host's other vCPU to the Go runtime and,
// for serve, the daemon (see README.md).
func measure(ctx context.Context, b bench, d time.Duration, firstIdx int) phase {
	start := time.Now()
	deadline := start.Add(d)
	var ph phase
	for idx := firstIdx; idx%b.block() != 0 || time.Now().Before(deadline); idx++ {
		j := b.do(ctx, idx)
		j.idx = idx
		ph.jobs = append(ph.jobs, j)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// runUntraced is the --trace 0 run: set-up, one timed phase, output check,
// end-to-end metrics.
func runUntraced(ctx context.Context, o options, wl workload) (result, error) {
	b, setup, err := setupAll(ctx, o, wl)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	ph := measure(ctx, b, seconds(o.seconds), 0)
	res := checkPhase(o, b, ph)
	res.Metrics = endToEnd(o, ph, setup)
	return res, nil
}

// checkPhase counts failed jobs and checks the output digest: attempted is
// every job plus the digest check.
func checkPhase(o options, b bench, ph phase) result {
	res := result{Attempted: len(ph.jobs) + 1}
	var fresh int
	for _, j := range ph.jobs {
		if j.fresh {
			fresh++
		}
		if j.fail != "" {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(o.log, "job %d failed: %s\n", j.idx, j.fail)
			}
		}
	}
	if fresh == 0 || fresh == len(ph.jobs) {
		// Both latency distributions must have samples.
		fmt.Fprintf(o.log, "phase ran %d fresh of %d jobs; need both kinds\n", fresh, len(ph.jobs))
		res.Failed++
	}
	if err := checkDigest(o, b, ph); err != nil {
		fmt.Fprintf(o.log, "output check: %v\n", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res
}

// endToEnd derives the end-to-end metrics of one timed phase. The p95
// latencies go to the log only: their run-to-run spread is wider than the
// largest bound the benchmark may set (README.md, "End-to-end metrics"), so
// the traced run reports them among the per-layer metrics instead.
func endToEnd(o options, ph phase, setup float64) map[string]metric {
	var uops int64
	for _, j := range ph.jobs {
		uops += j.uops
	}
	fresh, hit := latencies(ph)
	sec := ph.elapsed.Seconds()
	rss := peakRSSMB()
	fmt.Fprintf(o.log, "jobs: %d fresh, %d hit in %.3fs; %d µ-ops simulated; peak RSS %.1f MB; p95 fresh %.3f ms, hit %.3f ms\n",
		len(fresh), len(hit), sec, uops, rss, percentile(fresh, 95), percentile(hit, 95))
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"sim_minst_s":      {float64(uops) / sec / 1e6, "Minst/s"},
		"jobs_per_s":       {float64(len(ph.jobs)) / sec, "1/s"},
		"fresh_job_p50_ms": {percentile(fresh, 50), "ms"},
		"hit_job_p50_ms":   {percentile(hit, 50), "ms"},
		"peak_rss_mb":      {rss, "MB"},
	}
}

// latencies returns the phase's fresh and hit job latencies in ms.
func latencies(ph phase) (fresh, hit []float64) {
	for _, j := range ph.jobs {
		ms := float64(j.latency()) / 1e6
		if j.fresh {
			fresh = append(fresh, ms)
		} else {
			hit = append(hit, ms)
		}
	}
	return fresh, hit
}

// peakRSSMB returns the peak resident set size of this process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 when xs is empty (checkPhase fails such a run).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// windowWarmup offsets a warm-up window by the seed, so each seed
// simulates a different stream.
func windowWarmup(base int64, seed uint64) int64 { return base + 64*int64(seed%16) }

// forEach runs fn over items on n goroutines and returns the first error.
func forEach[T any](ctx context.Context, n int, items []T, fn func(T) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	next := make(chan T)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				if err := fn(it); err != nil {
					cancel(err)
				}
			}
		}()
	}
	for _, it := range items {
		select {
		case next <- it:
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	return context.Cause(ctx)
}

// planSlot returns the slot in [0, n) of job idx. The plan runs in blocks
// of n jobs, each a seeded permutation of all n slots, so any run of whole
// blocks has exactly the same job mix and only the order depends on the
// seed.
func planSlot(seed uint64, idx, n int, salt uint64) int {
	block, pos := idx/n, idx%n
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed^salt, block*n+i) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[pos]
}

// mix is splitmix64 over (seed, i).
func mix(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
