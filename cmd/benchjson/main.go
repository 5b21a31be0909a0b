// Command benchjson runs the repository's benchmark suite and writes a
// machine-readable BENCH_<n>.json so successive PRs can track the
// simulator's performance trajectory. It measures:
//
//   - every figure-regenerating experiment (table2, fig3..fig8, delays)
//     under the default event-driven scheduler: wall time, allocations,
//     and simulation throughput (Minsts/sec);
//   - the scheduler comparison: Table 2, the widened IQ=256 point, and a
//     trace-replay point (libquantum recorded in memory, then replayed
//     through the internal/traceio decoder) under both the event-driven
//     and the legacy scan wakeup/select implementations, interleaved and
//     best-of-N to shave scheduler-independent machine noise, with the
//     resulting speedup ratios.
//
// The whole suite drives the public specsched API (Simulator for the
// scheduler comparisons, Sweep.Report for the figure runs), so it doubles
// as a continuous end-to-end exercise of the façade.
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_1.json] [-reps 3] [-warmup N] [-measure N]
//	                       [-jobs N] [-smoke] [-for LABEL] [-profile DIR]
//	                       [-gate BENCH_<n>.json|auto] [-maxregress 0.20]
//
// -smoke skips the figure sweep for a CI-sized run (the scheduler
// comparison is kept at the default windows and reps, so it stays
// like-for-like with committed baselines). -profile DIR writes a CPU and
// a heap profile per measured section (each figure, each scheduler
// comparison point) into DIR as <name>.cpu.pprof / <name>.heap.pprof —
// the artifacts CI uploads on every perf job, so a gate failure comes
// with the profile that explains it. -gate compares the run's Table 2
// and trace-replay event-mode throughputs against a committed baseline
// file — "auto" selects the highest-numbered BENCH_<n>.json — and exits
// non-zero on a regression beyond -maxregress; the current scan-mode
// throughput anchors each comparison so that the gate measures the
// scheduler, not the speed of the machine CI happened to land on (see
// gateEventThroughput), and each verdict names the anchor file and
// prints the nominal delta next to the scan-anchored one. Baselines
// recorded before the trace-replay point existed gate on Table 2 alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"specsched"
	"specsched/presets"
)

type figureResult struct {
	Name       string  `json:"name"`
	NsOp       int64   `json:"ns_op"`
	AllocsOp   uint64  `json:"allocs_op"`
	UOps       int64   `json:"uops_simulated"`
	MinstsPerS float64 `json:"minsts_per_sec"`
}

type comparison struct {
	Name        string  `json:"name"`
	EventMinsts float64 `json:"event_minsts_per_sec"`
	ScanMinsts  float64 `json:"scan_minsts_per_sec"`
	Speedup     float64 `json:"speedup"`
	// PerWorkload breaks the table2 comparison down (absent for iq256).
	PerWorkload []wlComparison `json:"per_workload,omitempty"`
}

type wlComparison struct {
	Workload string  `json:"workload"`
	EventMs  float64 `json:"event_ms"`
	ScanMs   float64 `json:"scan_ms"`
	Speedup  float64 `json:"speedup"`
}

type report struct {
	Schema     string         `json:"schema"`
	CreatedFor string         `json:"created_for"`
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	Reps       int            `json:"reps"`
	Warmup     int64          `json:"warmup_uops"`
	Measure    int64          `json:"measure_uops"`
	Figures    []figureResult `json:"figures"`
	Scheduler  []comparison   `json:"scheduler_comparison"`
}

var benchWorkloads = []string{"swim", "hmmer", "xalancbmk", "libquantum", "mcf", "gzip"}

var ctx = context.Background()

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runFigure executes one named experiment on a fresh sweep and reports
// wall time, allocations, and throughput.
func runFigure(name string, warmup, measure int64, jobs int) (figureResult, error) {
	sweep := specsched.NewSweep(
		specsched.Warmup(warmup),
		specsched.Measure(measure),
		specsched.SweepWorkloads(benchWorkloads...),
		specsched.SweepJobs(jobs),
	)
	a0 := mallocs()
	start := time.Now()
	if _, err := sweep.Report(ctx, name); err != nil {
		return figureResult{}, err
	}
	wall := time.Since(start)
	uops := sweep.SimulatedUOps()
	return figureResult{
		Name:       name,
		NsOp:       wall.Nanoseconds(),
		AllocsOp:   mallocs() - a0,
		UOps:       uops,
		MinstsPerS: float64(uops) / wall.Seconds() / 1e6,
	}, nil
}

// timedRun builds a fresh core for (workload, impl) and returns the
// measurement window's wall-clock seconds (construction and warmup
// excluded — results.Run.Elapsed times the measured window only).
func timedRun(workload string, impl specsched.Scheduler, warmup, measure int64) (float64, error) {
	r, err := specsched.NewSimulator(
		specsched.WithPreset(presets.Baseline(0)),
		specsched.WithWorkload(workload),
		specsched.Warmup(warmup),
		specsched.Measure(measure),
		specsched.UseScheduler(impl),
	).Run(ctx)
	if err != nil {
		return 0, err
	}
	return r.Elapsed.Seconds(), nil
}

// table2Comparison measures the Table 2 suite (Baseline_0 over the bench
// workloads) under both scheduler implementations. The two implementations
// run back-to-back per workload and the best of reps is kept per
// (workload, impl) pair — the tightest pairing against slow drift in the
// host machine, which a whole-suite-at-a-time comparison soaks up as
// ratio noise.
func table2Comparison(warmup, measure int64, reps int) (comparison, error) {
	cmp := comparison{Name: "table2"}
	var totEv, totSc float64 // seconds
	for _, wl := range benchWorkloads {
		best := map[specsched.Scheduler]float64{}
		for i := 0; i < reps; i++ {
			for _, impl := range []specsched.Scheduler{specsched.SchedulerScan, specsched.SchedulerEvent} {
				el, err := timedRun(wl, impl, warmup, measure)
				if err != nil {
					return cmp, err
				}
				if b, ok := best[impl]; !ok || el < b {
					best[impl] = el
				}
			}
		}
		cmp.PerWorkload = append(cmp.PerWorkload, wlComparison{
			Workload: wl,
			EventMs:  1e3 * best[specsched.SchedulerEvent],
			ScanMs:   1e3 * best[specsched.SchedulerScan],
			Speedup:  best[specsched.SchedulerScan] / best[specsched.SchedulerEvent],
		})
		totEv += best[specsched.SchedulerEvent]
		totSc += best[specsched.SchedulerScan]
	}
	uops := float64(int64(len(benchWorkloads)) * measure)
	cmp.EventMinsts = uops / totEv / 1e6
	cmp.ScanMinsts = uops / totSc / 1e6
	cmp.Speedup = totSc / totEv
	return cmp, nil
}

// traceReplayComparison measures trace-replay throughput: libquantum —
// memory-bound, so it exercises quiescent-cycle skipping on the replay
// path too — is recorded once in memory, then replayed under both
// scheduler implementations, best of reps. The point guards the trace
// decoder's place on the simulator's hot path: a decoder regression
// (allocation creep, lost NextInto fast path) shows up here and nowhere
// else, because the synthetic-generation points never decode.
func traceReplayComparison(warmup, measure int64, reps int) (comparison, error) {
	var buf bytes.Buffer
	// Slack past the simulation window covers fetch-ahead into the
	// in-flight window (ROB + frontend) at the moment measurement ends.
	if err := specsched.WorkloadByName("libquantum").RecordTo(&buf, warmup+measure+16384); err != nil {
		return comparison{}, err
	}
	data := buf.Bytes()
	cmp := comparison{Name: "tracereplay"}
	best := map[specsched.Scheduler]float64{}
	for i := 0; i < reps; i++ {
		for _, impl := range []specsched.Scheduler{specsched.SchedulerScan, specsched.SchedulerEvent} {
			r, err := specsched.NewSimulator(
				specsched.WithPreset(presets.Baseline(0)),
				specsched.WithWorkloadSpec(specsched.TraceWorkloadReader(bytes.NewReader(data))),
				specsched.Warmup(warmup),
				specsched.Measure(measure),
				specsched.UseScheduler(impl),
			).Run(ctx)
			if err != nil {
				return cmp, err
			}
			if el := r.Elapsed.Seconds(); best[impl] == 0 || el < best[impl] {
				best[impl] = el
			}
		}
	}
	uops := float64(measure)
	cmp.EventMinsts = uops / best[specsched.SchedulerEvent] / 1e6
	cmp.ScanMinsts = uops / best[specsched.SchedulerScan] / 1e6
	cmp.Speedup = best[specsched.SchedulerScan] / best[specsched.SchedulerEvent]
	return cmp, nil
}

// iq256Throughput measures steady-state core throughput on the widened
// window (256-entry IQ) point: a conservative wide machine on a
// streaming-DRAM workload, where ~100 sleeping IQ entries punish the
// per-cycle scan.
func iq256Throughput(impl specsched.Scheduler, measure int64) (float64, error) {
	r, err := specsched.NewSimulator(
		specsched.WithPreset(presets.WideWindow(presets.Baseline(0))),
		specsched.WithWorkload("libquantum"),
		specsched.Warmup(20000),
		specsched.Measure(measure),
		specsched.UseScheduler(impl),
	).Run(ctx)
	if err != nil {
		return 0, err
	}
	return float64(r.Committed) / r.Elapsed.Seconds() / 1e6, nil
}

// latestBench returns the committed BENCH_<n>.json in dir with the highest
// n — the gate baseline "auto" resolves to, so CI keeps gating against the
// newest committed trajectory point without the workflow hard-coding a
// filename that every bench-recording PR would have to edit.
func latestBench(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		name := e.Name()
		var n int
		if _, err := fmt.Sscanf(name, "BENCH_%d.json", &n); err != nil || name != fmt.Sprintf("BENCH_%d.json", n) {
			continue
		}
		if n > bestN {
			best, bestN = name, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json found in %s", dir)
	}
	return filepath.Join(dir, best), nil
}

// loadBaseline reads a previously committed benchjson report.
func loadBaseline(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// gateEventThroughput decides the bench-regression gate: is the current
// Table 2 event-mode throughput more than maxRegress below the baseline's,
// after normalizing out the speed of the machine? The scan-mode
// implementation is the anchor — it is frozen legacy code, so the ratio
// cur.Scan/base.Scan estimates how fast this machine is relative to the
// machine that produced the baseline file, and the event-mode floor scales
// with it. (Algebraically this gates the event/scan speedup ratio, which
// is what a hosted CI runner can measure reproducibly.) It returns a
// human-readable verdict and whether the gate passes.
func gateEventThroughput(cur, base comparison, maxRegress float64) (string, bool) {
	if base.EventMinsts <= 0 || base.ScanMinsts <= 0 || cur.ScanMinsts <= 0 {
		return fmt.Sprintf("unusable throughputs (cur scan %.3f, base event %.3f scan %.3f)",
			cur.ScanMinsts, base.EventMinsts, base.ScanMinsts), false
	}
	machine := cur.ScanMinsts / base.ScanMinsts
	floor := base.EventMinsts * machine * (1 - maxRegress)
	// Both deltas side by side: nominal is the raw throughput change the
	// trajectory reader cares about, scan-anchored is what the gate
	// actually judges (machine speed normalized out).
	nominal := 100 * (cur.EventMinsts/base.EventMinsts - 1)
	anchored := 100 * (cur.EventMinsts/(base.EventMinsts*machine) - 1)
	verdict := fmt.Sprintf(
		"event %.3f Minsts/s vs floor %.3f (baseline event %.3f x machine factor %.2f x allowance %.0f%%); nominal %+.1f%%, scan-anchored %+.1f%%; speedup %.2fx vs baseline %.2fx",
		cur.EventMinsts, floor, base.EventMinsts, machine, 100*(1-maxRegress),
		nominal, anchored, cur.Speedup, base.Speedup)
	return verdict, cur.EventMinsts >= floor
}

// profileSection brackets one measured section with a CPU profile and
// dumps a heap profile when it finishes, as dir/<name>.cpu.pprof and
// dir/<name>.heap.pprof. With an empty dir it just runs the section.
func profileSection(dir, name string, fn func() error) error {
	if dir == "" {
		return fn()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := pprof.StartCPUProfile(cf); err != nil {
		return err
	}
	sectionErr := fn()
	pprof.StopCPUProfile()
	hf, err := os.Create(filepath.Join(dir, name+".heap.pprof"))
	if err != nil {
		return err
	}
	defer hf.Close()
	runtime.GC() // fold transient garbage so the heap profile shows retained state
	if err := pprof.WriteHeapProfile(hf); err != nil {
		return err
	}
	return sectionErr
}

func main() {
	out := flag.String("out", "BENCH_1.json", "output path")
	reps := flag.Int("reps", 3, "interleaved repetitions per comparison point (best-of)")
	warmup := flag.Int64("warmup", 4000, "warmup µ-ops per run")
	measure := flag.Int64("measure", 20000, "measured µ-ops per run")
	jobs := flag.Int("jobs", 0, "sweep worker goroutines for the figure runs (default: GOMAXPROCS)")
	smoke := flag.Bool("smoke", false, "CI-sized run: figure sweep skipped (comparison windows/reps unchanged)")
	profileDir := flag.String("profile", "", "directory for per-section CPU/heap pprof profiles (empty = no profiling)")
	gate := flag.String("gate", "", "baseline BENCH_<n>.json to gate Table 2 event throughput against (\"auto\" = highest-numbered committed BENCH_<n>.json)")
	maxRegress := flag.Float64("maxregress", 0.20, "allowed fractional event-throughput regression for -gate")
	createdFor := flag.String("for", "", "label recorded as created_for (what this trajectory point measures)")
	flag.Parse()

	// Resolve and load the gate baseline BEFORE anything is measured or
	// written: -gate auto must not be able to select the file this very
	// run is about to write with -out, which would gate the run against
	// itself and pass vacuously.
	var gatePath string
	var gateBase report
	if *gate != "" {
		gatePath = *gate
		if gatePath == "auto" {
			var err error
			if gatePath, err = latestBench("."); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: gate:", err)
				os.Exit(1)
			}
			fmt.Println("gate: auto-selected baseline", gatePath)
		}
		var err error
		if gateBase, err = loadBaseline(gatePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: gate:", err)
			os.Exit(1)
		}
	}

	// -smoke only skips the figure sweep; the scheduler comparison keeps
	// the default windows and reps. The gate's scan-anchored comparison is
	// only meaningful like-for-like with the committed baseline (recorded
	// at the defaults): quiescent-cycle skipping makes the event/scan
	// ratio depend on the measurement window, so a shrunken smoke window
	// would read as a phantom regression. The comparison itself is cheap —
	// the figure sweep is what a CI run cannot afford.

	if *createdFor == "" {
		*createdFor = "perf trajectory point"
		if *smoke {
			*createdFor = "smoke run (CI bench-regression gate)"
		}
	}
	rep := report{
		Schema:     "specsched-bench/v1",
		CreatedFor: *createdFor,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Reps:       *reps,
		Warmup:     *warmup,
		Measure:    *measure,
	}

	// The figure sweep exercises the sweep façade end to end (it is
	// skipped in smoke mode: the gate only needs the scheduler comparison
	// below).
	if !*smoke {
		for _, name := range []string{"table2", "fig3", "fig4", "fig5", "fig7", "fig8", "delays"} {
			var fr figureResult
			err := profileSection(*profileDir, "fig-"+name, func() error {
				var err error
				fr, err = runFigure(name, *warmup, *measure, *jobs)
				return err
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", name, err)
				os.Exit(1)
			}
			rep.Figures = append(rep.Figures, fr)
			fmt.Printf("%-8s %8.1f ms  %9d allocs  %6.3f Minsts/sec\n",
				name, float64(fr.NsOp)/1e6, fr.AllocsOp, fr.MinstsPerS)
		}
	}

	// Scheduler comparison: per-workload back-to-back pairs, best of reps.
	var t2 comparison
	err := profileSection(*profileDir, "cmp-table2", func() error {
		var err error
		t2, err = table2Comparison(*warmup, *measure, *reps)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: table2 comparison: %v\n", err)
		os.Exit(1)
	}
	var iqev, iqsc float64
	err = profileSection(*profileDir, "cmp-iq256", func() error {
		for i := 0; i < *reps; i++ {
			for _, m := range []struct {
				impl specsched.Scheduler
				dst  *float64
			}{{specsched.SchedulerScan, &iqsc}, {specsched.SchedulerEvent, &iqev}} {
				v, err := iq256Throughput(m.impl, 5**measure)
				if err != nil {
					return fmt.Errorf("%s: %w", m.impl, err)
				}
				if v > *m.dst {
					*m.dst = v
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: iq256: %v\n", err)
		os.Exit(1)
	}
	var tr comparison
	err = profileSection(*profileDir, "cmp-tracereplay", func() error {
		var err error
		tr, err = traceReplayComparison(*warmup, *measure, *reps)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: trace replay comparison: %v\n", err)
		os.Exit(1)
	}
	rep.Scheduler = []comparison{
		t2,
		{Name: "iq256", EventMinsts: iqev, ScanMinsts: iqsc, Speedup: iqev / iqsc},
		tr,
	}
	for _, ccmp := range rep.Scheduler {
		fmt.Printf("%-8s event %6.3f  scan %6.3f  speedup %.2fx\n",
			ccmp.Name, ccmp.EventMinsts, ccmp.ScanMinsts, ccmp.Speedup)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)

	if *gate != "" {
		pass := true
		for _, name := range gatedComparisons {
			base := findComparison(gateBase.Scheduler, name)
			cur := findComparison(rep.Scheduler, name)
			if base.Name == "" && name != "table2" {
				// Older committed baselines predate this comparison point;
				// table2 is the one every baseline must carry.
				fmt.Printf("gate[%s]: baseline %s has no such point, skipping\n", name, gatePath)
				continue
			}
			verdict, ok := gateEventThroughput(cur, base, *maxRegress)
			fmt.Printf("gate[%s] vs %s: %s\n", name, filepath.Base(gatePath), verdict)
			pass = pass && ok
		}
		if !pass {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION against %s\n", gatePath)
			os.Exit(1)
		}
	}
}

// gatedComparisons are the scheduler-comparison points -gate checks
// against the baseline: the Table 2 suite (generation path) and trace
// replay (decode path). Points absent from an older baseline are skipped,
// except table2, which every baseline carries.
var gatedComparisons = []string{"table2", "tracereplay"}

// findComparison returns the named comparison, or a zero value whose empty
// Name marks it missing.
func findComparison(list []comparison, name string) comparison {
	for _, c := range list {
		if c.Name == name {
			return c
		}
	}
	return comparison{}
}
