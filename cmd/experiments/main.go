// Command experiments regenerates the paper's tables and figures as text
// reports, running the (configuration × workload × seed) grid through the
// public specsched Sweep façade (work-stealing pool, resumable
// checkpoints, context cancellation).
//
// Usage:
//
//	experiments [-exp all|table1,fig5,...] [-list]
//	            [-measure N] [-warmup N] [-workloads a,b,c] [-filter REGEX]
//	            [-trace GLOB] [-jobs N] [-workers N] [-seeds N] [-timeout DUR]
//	            [-stall-timeout DUR] [-retries N] [-retry-backoff DUR]
//	            [-chaos RATE] [-chaos-seed N] [-timeskip=false]
//	            [-resume FILE] [-json FILE] [-progress]
//	            [-spec FILE] [-dump]
//
// Each report prints the same rows/series the paper reports, normalized the
// same way (per-benchmark vs Baseline_0, geometric means); paper reference
// numbers are attached where the paper states them.
//
//	-jobs     worker goroutines for the sweep grid (default GOMAXPROCS)
//	-workers  execute cells in this many supervised worker subprocesses
//	          (re-execs of this binary) instead of in-process goroutines;
//	          results are bit-identical, but a runaway cell costs one
//	          worker respawn instead of the whole process (0 = in-process)
//	-seeds    seed replicas per (config, workload) cell, pooled into one
//	          result (default 1: the calibrated profile seeds)
//	-filter   regular expression selecting workloads (applied to the
//	          -workloads list, default the full 36-benchmark suite)
//	-trace    glob of recorded µ-op traces (see cmd/tracedump) to run the
//	          experiment grid over, each named by its file stem. Without
//	          -workloads/-filter the grid runs over the traces alone;
//	          with them, the traces are appended to the workload axis
//	          (a trace name shadows the same-named profile)
//	-timeout  per-cell wall-clock bound; a diverging cell fails alone
//	-stall-timeout
//	          per-cell stall watchdog: a cell whose simulated-cycle
//	          counter stops advancing for this long is killed early (slow
//	          but progressing cells are spared; 0 = disabled)
//	-retries  attempt budget per cell (0, the default, leaves it to the
//	          sweep: no retries in-process, 3 attempts with -workers so a
//	          crashed worker's cell is reassigned; 1 = no retries); only
//	          transient failures — panics, timeouts, stalls — are
//	          retried, deterministic ones (bad trace, bad config) fail
//	          immediately
//	-retry-backoff
//	          delay before the first retry, doubling per attempt
//	          (default 100ms, capped at 32×)
//	-chaos    deterministic fault-injection rate (0..1) for resilience
//	          testing: each cell attempt panics or fails transiently with
//	          this probability (plus hangs when -timeout/-stall-timeout
//	          is set, and torn checkpoint writes when -resume is set),
//	          decided by a pure function of -chaos-seed and the cell, so
//	          reruns inject identical faults. Results stay bit-identical
//	          to a fault-free run; use with -retries 3 or more
//	-chaos-seed
//	          seed for the -chaos plan (default 1)
//	-timeskip quiescent-cycle skipping (default true): advance simulated
//	          time event-to-event over provably dead cycles; results are
//	          bit-identical either way, only simulator speed changes.
//	          -timeskip=false restores per-cycle stepping
//	-resume   resumable sweep checkpoint: completed cells are saved there
//	          and skipped when the sweep restarts with the same options
//	-spec     build the sweep from a declarative SweepSpec JSON file (the
//	          wire format specschedd serves; see EXPERIMENTS.md) instead
//	          of the sweep flags. Either way the sweep is one SweepSpec,
//	          validated up front before anything runs
//	-dump     print the sweep's effective SweepSpec as JSON and exit —
//	          turns a flag invocation into a -spec/daemon-submittable file
//	-json     write the reports plus every per-(config, workload) run as
//	          machine-readable JSON
//	-progress stream per-cell completion lines to stderr
//
// SIGINT/SIGTERM cancel the sweep's context: in-flight cells stop within
// milliseconds, completed cells are flushed to the -resume checkpoint (if
// one is configured), and the command exits non-zero after printing how to
// resume.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"specsched"
	"specsched/presets"
	"specsched/results"
)

// jsonReport is the -json output schema.
type jsonReport struct {
	Schema    string           `json:"schema"`
	GoVersion string           `json:"go_version"`
	Options   jsonOptions      `json:"options"`
	Reports   []jsonExperiment `json:"reports"`
	Runs      []results.Run    `json:"runs"`
	Elapsed   float64          `json:"elapsed_sec"`
	Simulated int64            `json:"simulated_uops"`
}

type jsonOptions struct {
	Warmup    int64    `json:"warmup_uops"`
	Measure   int64    `json:"measure_uops"`
	Seeds     int      `json:"seeds"`
	Jobs      int      `json:"jobs"`
	Workloads []string `json:"workloads"`
	Traces    []string `json:"traces,omitempty"`
}

type jsonExperiment struct {
	Name   string `json:"name"`
	Report string `json:"report"`
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	// Must run before anything else: when this process was re-exec'd as a
	// sweep cell worker (-workers), it serves cells and never returns.
	specsched.MaybeWorker()
	exp := flag.String("exp", "all", "experiments to run, comma-separated ("+strings.Join(specsched.Reports(), "|")+"|all)")
	list := flag.Bool("list", false, "print the known experiment names, presets, and workloads, then exit")
	measure := flag.Int64("measure", 60000, "measured µ-ops per cell")
	warmup := flag.Int64("warmup", 10000, "warmup µ-ops per cell")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all 36)")
	filter := flag.String("filter", "", "regexp selecting workloads (applied after -workloads)")
	traceGlob := flag.String("trace", "", "glob of recorded µ-op traces to run the grid over")
	jobs := flag.Int("jobs", 0, "sweep worker goroutines (default: GOMAXPROCS)")
	workers := flag.Int("workers", 0, "execute cells in this many supervised worker subprocesses (0 = in-process; bit-identical results)")
	seeds := flag.Int("seeds", 1, "seed replicas per (config, workload) cell, pooled")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock bound (0 = unbounded)")
	stallTimeout := flag.Duration("stall-timeout", 0, "kill cells whose simulated-cycle counter freezes this long (0 = disabled)")
	retries := flag.Int("retries", 0, "attempt budget per cell (0 = sweep default: 1, or 3 with -workers); transient failures retry, deterministic ones fail fast")
	retryBackoff := flag.Duration("retry-backoff", 0, "delay before the first retry, doubling per attempt (0 = 100ms default)")
	chaosRate := flag.Float64("chaos", 0, "deterministic fault-injection rate per cell attempt (0..1; testing only)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed of the -chaos fault plan")
	timeskip := flag.Bool("timeskip", true, "skip provably quiescent cycles event-to-event (bit-identical; off = per-cycle stepping)")
	resume := flag.String("resume", "", "resumable sweep checkpoint file (created if missing)")
	jsonOut := flag.String("json", "", "write reports and per-cell runs as JSON to this file")
	progress := flag.Bool("progress", false, "stream per-cell completions to stderr")
	specFile := flag.String("spec", "", "build the sweep from this SweepSpec JSON file (the sweep flags above are ignored)")
	dump := flag.Bool("dump", false, "print the sweep's effective SweepSpec as JSON and exit")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, n := range specsched.Reports() {
			fmt.Println("  " + n)
		}
		fmt.Println("configuration presets:")
		for _, n := range presets.Names() {
			fmt.Println("  " + n)
		}
		fmt.Println("workloads:")
		fmt.Println("  " + strings.Join(specsched.WorkloadNames(), " "))
		return
	}

	var tracePaths []string
	if *traceGlob != "" {
		var err error
		tracePaths, err = filepath.Glob(*traceGlob)
		if err != nil {
			fatalf("bad -trace glob: %v", err)
		}
		if len(tracePaths) == 0 {
			fatalf("-trace %q matches no files", *traceGlob)
		}
		sort.Strings(tracePaths)
	}

	// With -trace and no explicit workload selection, the grid runs over
	// the traces alone: pass no synthetic workloads and let the sweep's
	// default (traces only) apply.
	explicitWls := *workloads != "" || *filter != ""
	wls := specsched.WorkloadNames()
	if *workloads != "" {
		wls = strings.Split(*workloads, ",")
	}
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fatalf("bad -filter: %v", err)
		}
		var kept []string
		for _, wl := range wls {
			if re.MatchString(wl) {
				kept = append(kept, wl)
			}
		}
		if len(kept) == 0 {
			fatalf("-filter %q matches none of %v", *filter, wls)
		}
		wls = kept
	}

	// The flags fill one SweepSpec, the same description -spec decodes and
	// specschedd accepts, so both paths build the sweep identically.
	spec := specsched.SweepSpec{
		Traces:       tracePaths,
		Seeds:        *seeds,
		Jobs:         *jobs,
		Workers:      *workers,
		Warmup:       warmup,
		Measure:      measure,
		TimeSkip:     timeskip,
		Checkpoint:   *resume,
		CellTimeout:  specsched.Duration(*timeout),
		StallTimeout: specsched.Duration(*stallTimeout),
		Retries:      *retries,
		RetryBackoff: specsched.Duration(*retryBackoff),
	}
	if len(tracePaths) > 0 && !explicitWls {
		wls = nil
	} else {
		spec.Workloads = wls
	}
	if *chaosRate != 0 {
		chaos := specsched.Chaos{
			Seed:          *chaosSeed,
			PanicRate:     *chaosRate,
			TransientRate: *chaosRate,
		}
		// Hangs are only recoverable when something bounds the cell, and
		// torn checkpoint writes only matter when a checkpoint exists.
		if *timeout > 0 || *stallTimeout > 0 {
			chaos.HangRate = *chaosRate
		}
		if *resume != "" {
			chaos.TornWriteRate = *chaosRate
		}
		spec.Chaos = &chaos
		// 0 retries means 3 attempts with -workers, 1 attempt without.
		if *retries == 1 || (*retries == 0 && *workers == 0) {
			fmt.Fprintln(os.Stderr, "experiments: warning: -chaos without -retries > 1 will fail injected cells permanently")
		}
	}
	var extra []specsched.SweepOption
	if *progress {
		extra = append(extra, specsched.SweepProgress(func(p specsched.Progress) {
			state := fmt.Sprintf("%.2fs", p.Elapsed.Seconds())
			if p.IsCache {
				state = "checkpoint"
			}
			if p.Err != nil {
				state = "FAILED"
			}
			if p.Attempts > 1 {
				state += fmt.Sprintf(" (attempt %d)", p.Attempts)
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s %s\n", p.Done, p.Total, p.Cell, state)
		}))
	}

	// -spec replaces the flag-built spec wholesale; the axis and resilience
	// flags above are ignored. -progress/-exp/-json still apply either way.
	source := "sweep flags"
	if *specFile != "" {
		source = "-spec " + *specFile
		f, err := os.Open(*specFile)
		if err != nil {
			fatalf("-spec: %v", err)
		}
		spec, err = specsched.DecodeSweepSpec(f)
		f.Close()
		if err != nil {
			fatalf("%s: %v", source, err)
		}
		// The summary and -json metadata describe the effective sweep.
		wls = spec.Workloads
		tracePaths = spec.Traces
	}
	sweep, err := specsched.NewSweepFromSpec(spec, extra...)
	if err != nil {
		fatalf("%s: %v", source, err)
	}

	if *dump {
		data, err := json.MarshalIndent(sweep.Spec(), "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(data))
		return
	}

	// SIGINT/SIGTERM cancel the sweep context. The simulator cores poll it,
	// so in-flight cells abort within milliseconds and the checkpoint is
	// flushed with everything that completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := specsched.Reports()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	start := time.Now()
	eff := sweep.Spec() // effective options, whether flag- or -spec-built
	rep := jsonReport{
		Schema:    "specsched-experiments/v1",
		GoVersion: runtime.Version(),
		Options: jsonOptions{
			Warmup: *eff.Warmup, Measure: *eff.Measure,
			Seeds: eff.Seeds, Jobs: eff.Jobs, Workloads: wls, Traces: tracePaths,
		},
	}
	// A failed cell must not discard the rest of the sweep: report the
	// error, keep running the remaining experiments (their healthy cells
	// are cached/checkpointed already), still write -json, exit non-zero.
	// An interrupt, by contrast, stops everything — but still writes -json
	// and prints the resume hint.
	failed, interrupted := false, false
	for _, name := range names {
		out, err := sweep.Report(ctx, name)
		if err != nil {
			if errors.Is(err, specsched.ErrCanceled) {
				interrupted = true
				break
			}
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			failed = true
			continue
		}
		fmt.Println(out)
		rep.Reports = append(rep.Reports, jsonExperiment{Name: name, Report: out})
	}
	elapsed := time.Since(start)

	// End-of-run resilience summary: what failed for good, what the retry
	// machinery recovered, and whether the resume checkpoint needed
	// salvaging. Silent when nothing noteworthy happened.
	fr := sweep.FailureReport()
	if fr.CheckpointSalvage != "" {
		fmt.Fprintf(os.Stderr, "experiments: checkpoint salvaged: %s\n", fr.CheckpointSalvage)
	}
	if fr.Retries > 0 || fr.Abandoned > 0 {
		fmt.Fprintf(os.Stderr, "experiments: resilience: %d retries, %d cells recovered, %d goroutines abandoned\n",
			fr.Retries, fr.Recovered, fr.Abandoned)
	}
	if len(fr.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d cells failed permanently:\n", len(fr.Failed))
		for _, f := range fr.Failed {
			kind := "permanent"
			if f.Transient {
				kind = "transient; raise -retries"
			}
			fmt.Fprintf(os.Stderr, "  %-40s attempts=%d (%s): %v\n", f.Cell, f.Attempts, kind, f.Err)
		}
	}

	if interrupted {
		fmt.Fprintln(os.Stderr, "experiments: interrupted — completed cells are preserved")
		if eff.Checkpoint != "" {
			fmt.Fprintf(os.Stderr, "experiments: checkpoint flushed; resumable via -resume %s (same options)\n", eff.Checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "experiments: hint: run with -resume FILE to make interrupted sweeps resumable")
		}
	} else {
		// The sweep owns the effective workload axis (trace names shadow
		// same-named profiles); report the two inputs rather than
		// re-deriving the merge here.
		axis := fmt.Sprintf("%d workloads", len(wls))
		switch {
		case len(tracePaths) > 0 && len(wls) == 0:
			axis = fmt.Sprintf("%d traces", len(tracePaths))
		case len(tracePaths) > 0:
			axis = fmt.Sprintf("%d workloads + %d traces", len(wls), len(tracePaths))
		}
		fmt.Printf("(completed in %.1fs, %d µ-ops simulated, %s, %d seeds, jobs=%d)\n",
			elapsed.Seconds(), sweep.SimulatedUOps(), axis, eff.Seeds, effectiveJobs(eff.Jobs))
	}

	if *jsonOut != "" {
		rep.Runs = sweep.Snapshot()
		rep.Elapsed = elapsed.Seconds()
		rep.Simulated = sweep.SimulatedUOps()
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("wrote", *jsonOut)
	}
	if interrupted {
		os.Exit(130)
	}
	if failed {
		os.Exit(1)
	}
}

func effectiveJobs(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}
