// Command experiments is the sweep CLI: it runs (configuration × workload
// × seed) grids through the public specsched Sweep façade (worker pool,
// resumable checkpoints, context cancellation) and prints the
// paper's tables and figures as text reports — normalized the way the
// paper normalizes them, with its reference numbers inline — or, with
// -exp cells, one row per grid cell.
//
// Every sweep flag writes straight into a field of one specsched.SweepSpec:
// the description -spec decodes, -dump prints and specschedd serves, so a
// flag invocation and its dumped spec run the same sweep. The flags are
// documented by -h and in EXPERIMENTS.md.
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
	"io"
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
	Schema    string              `json:"schema"`
	GoVersion string              `json:"go_version"`
	Spec      specsched.SweepSpec `json:"spec"`
	Reports   []jsonExperiment    `json:"reports"`
	Runs      []results.Run       `json:"runs"`
	Elapsed   float64             `json:"elapsed_sec"`
	Simulated int64               `json:"simulated_uops"`
}

type jsonExperiment struct {
	Name   string `json:"name"`
	Report string `json:"report"`
}

// cellsExp names the CLI-side experiment that renders the raw grid, one
// row per cell; it is not part of "all".
const cellsExp = "cells"

func main() {
	// Must run before anything else: when this process was re-exec'd as a
	// sweep cell worker (-workers), it serves cells and never returns.
	specsched.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bindSweep registers the sweep flags on fs, each writing into the spec
// field it sets, and returns the step to run after parsing: it derives
// what several flags decide together — the workload axis (-workloads,
// -filter, -trace) and the -chaos fault plan.
func bindSweep(fs *flag.FlagSet, spec *specsched.SweepSpec) (finish func() error) {
	warmup, measure := specsched.DefaultWarmup, specsched.DefaultMeasure
	spec.Warmup, spec.Measure = &warmup, &measure
	list := func(dst *[]string) func(string) error {
		return func(s string) error {
			*dst = nil
			if s != "" {
				*dst = strings.Split(s, ",")
			}
			return nil
		}
	}
	fs.Func("configs", "comma-separated configuration presets of the grid (required by -exp cells; reports pick their own)", list(&spec.Configs))
	fs.Func("workloads", "comma-separated workload subset (default: all 36)", list(&spec.Workloads))
	var filter *regexp.Regexp
	fs.Func("filter", "regexp selecting workloads (applied after -workloads)", func(s string) (err error) {
		filter = nil
		if s != "" {
			filter, err = regexp.Compile(s)
		}
		return err
	})
	fs.Func("trace", "glob of recorded µ-op traces (see cmd/tracedump) joining the workload axis, each named by its file stem; without -workloads/-filter the grid runs over the traces alone", func(glob string) error {
		paths, err := filepath.Glob(glob)
		if err == nil && len(paths) == 0 {
			err = fmt.Errorf("%q matches no files", glob)
		}
		sort.Strings(paths)
		spec.Traces = paths
		return err
	})
	fs.Int64Var(spec.Measure, "measure", measure, "measured µ-ops per cell")
	fs.Int64Var(spec.Warmup, "warmup", warmup, "warmup µ-ops per cell")
	fs.IntVar(&spec.Jobs, "jobs", 0, "sweep pool goroutines (default: one per -workers subprocess, else GOMAXPROCS; results are bit-identical for any value)")
	fs.IntVar(&spec.Workers, "workers", 0, "execute cells in this many supervised worker subprocesses, re-execs of this binary (0 = in-process; bit-identical results)")
	fs.IntVar(&spec.Seeds, "seeds", 1, "seed replicas per (config, workload) cell, pooled")
	fs.DurationVar((*time.Duration)(&spec.CellTimeout), "timeout", 0, "per-cell wall-clock bound; a diverging cell fails alone (0 = unbounded)")
	fs.DurationVar((*time.Duration)(&spec.StallTimeout), "stall-timeout", 0, "kill cells whose simulated-cycle counter freezes this long (0 = disabled)")
	fs.IntVar(&spec.Retries, "retries", 0, "attempt budget per cell (0 = sweep default: 1, or 3 with -workers); transient failures retry, deterministic ones fail fast")
	fs.DurationVar((*time.Duration)(&spec.RetryBackoff), "retry-backoff", 0, "delay before the first retry, doubling per attempt (0 = 100ms default)")
	fs.StringVar(&spec.Checkpoint, "resume", "", "resumable sweep checkpoint file (created if missing)")
	var chaos specsched.Chaos
	fs.Float64Var(&chaos.PanicRate, "chaos", 0, "deterministic fault-injection rate per cell attempt (0..1; testing only, use with -retries 3 or more)")
	fs.Uint64Var(&chaos.Seed, "chaos-seed", 1, "seed of the -chaos fault plan")

	return func() error {
		// With -trace and no workload selection the grid runs over the
		// traces alone: the sweep's default when Workloads is empty.
		if spec.Workloads == nil && (filter != nil || len(spec.Traces) == 0) {
			spec.Workloads = specsched.WorkloadNames()
		}
		if filter != nil {
			var kept []string
			for _, wl := range spec.Workloads {
				if filter.MatchString(wl) {
					kept = append(kept, wl)
				}
			}
			if len(kept) == 0 {
				return fmt.Errorf("-filter %q matches none of %v", filter, spec.Workloads)
			}
			spec.Workloads = kept
		}
		if rate := chaos.PanicRate; rate != 0 {
			chaos.TransientRate = rate
			// Hangs are only recoverable when something bounds the cell,
			// and torn checkpoint writes only matter when one exists.
			if spec.CellTimeout > 0 || spec.StallTimeout > 0 {
				chaos.HangRate = rate
			}
			if spec.Checkpoint != "" {
				chaos.TornWriteRate = rate
			}
			spec.Chaos = &chaos
		}
		return nil
	}
}

// run is the command behind main: it parses args, runs the sweep, writes
// reports to stdout and diagnostics to stderr, and returns the exit code
// (2 for a usage error, 1 for a failure, 130 for an interrupt).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec specsched.SweepSpec
	finish := bindSweep(fs, &spec)
	sweepFlags := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { sweepFlags[f.Name] = true })

	exp := fs.String("exp", "all", "experiments to run, comma-separated ("+strings.Join(specsched.Reports(), "|")+"|"+cellsExp+"|all); "+cellsExp+" prints one row per -configs × workloads × seeds cell and is not part of all")
	list := fs.Bool("list", false, "print the known experiment names, presets, and workloads, then exit")
	jsonOut := fs.String("json", "", "write reports, per-(config, workload) runs and the effective SweepSpec as JSON to this file")
	progress := fs.Bool("progress", false, "stream per-cell completions to stderr")
	specFile := fs.String("spec", "", "build the sweep from this SweepSpec JSON file (the wire format specschedd serves) instead of the sweep flags, which may then not be set")
	dump := fs.Bool("dump", false, "print the sweep's effective SweepSpec as JSON and exit")

	usage := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	fail := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		return 1
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// flag stops at the first non-flag argument; everything after it
	// would be silently dropped.
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range append(specsched.Reports(), cellsExp) {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "configuration presets:")
		for _, n := range presets.Names() {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "workloads:")
		fmt.Fprintln(stdout, "  "+strings.Join(specsched.WorkloadNames(), " "))
		return 0
	}

	// -spec replaces the flag-built spec wholesale, so a sweep flag next to
	// it would be ignored: reject it instead.
	source := "sweep flags"
	if *specFile != "" {
		var mixed []string
		fs.Visit(func(f *flag.Flag) {
			if sweepFlags[f.Name] {
				mixed = append(mixed, "-"+f.Name)
			}
		})
		if len(mixed) > 0 {
			return usage("-spec describes the whole sweep; drop %s", strings.Join(mixed, " "))
		}
		source = "-spec " + *specFile
		f, err := os.Open(*specFile)
		if err != nil {
			return fail("-spec: %v", err)
		}
		spec, err = specsched.DecodeSweepSpec(f)
		f.Close()
		if err != nil {
			return fail("%s: %v", source, err)
		}
	} else if err := finish(); err != nil {
		return usage("%v", err)
	}
	var extra []specsched.SweepOption
	if *progress {
		extra = append(extra, specsched.SweepProgress(func(p specsched.Progress) {
			state := fmt.Sprintf("%.2fs", p.Run.Elapsed.Seconds())
			if p.Cached {
				state = "checkpoint"
			}
			if p.Err != nil {
				state = "FAILED"
			}
			if p.Attempts > 1 {
				state += fmt.Sprintf(" (attempt %d)", p.Attempts)
			}
			fmt.Fprintf(stderr, "[%d/%d] %-40s %s\n", p.Done, p.Total, p.CellRef, state)
		}))
	}
	sweep, err := specsched.NewSweepFromSpec(spec, extra...)
	if err != nil {
		return fail("%s: %v", source, err)
	}
	eff := sweep.Spec()
	if eff.Chaos != nil && eff.Retries <= 1 {
		fmt.Fprintln(stderr, "experiments: warning: chaos without retries > 1 will fail injected cells permanently")
	}

	if *dump {
		data, err := json.MarshalIndent(eff, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
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
	rep := jsonReport{Schema: "specsched-experiments/v2", GoVersion: runtime.Version(), Spec: eff}
	// A failed cell must not discard the rest of the sweep: report the
	// error, keep running the remaining experiments (their healthy cells
	// are cached/checkpointed already), still write -json, exit non-zero.
	// An interrupt, by contrast, stops everything — but still writes -json
	// and prints the resume hint.
	failed, interrupted := false, false
	for _, name := range names {
		var out string
		if name == cellsExp {
			out, err = cellsReport(ctx, sweep)
		} else {
			out, err = sweep.Report(ctx, name)
		}
		if errors.Is(err, specsched.ErrCanceled) {
			interrupted = true
			break
		}
		if out != "" {
			fmt.Fprintln(stdout, out)
			rep.Reports = append(rep.Reports, jsonExperiment{Name: name, Report: out})
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			failed = true
		}
	}
	elapsed := time.Since(start)

	// End-of-run resilience summary: what failed for good, what the retry
	// machinery recovered, and whether the resume checkpoint needed
	// salvaging. Silent when nothing noteworthy happened.
	fr := sweep.FailureReport()
	if fr.CheckpointSalvage != "" {
		fmt.Fprintf(stderr, "experiments: checkpoint salvaged: %s\n", fr.CheckpointSalvage)
	}
	if fr.Retries > 0 || fr.Abandoned > 0 {
		fmt.Fprintf(stderr, "experiments: resilience: %d retries, %d cells recovered, %d goroutines abandoned\n",
			fr.Retries, fr.Recovered, fr.Abandoned)
	}
	if len(fr.Failed) > 0 {
		fmt.Fprintf(stderr, "experiments: %d cells failed permanently:\n", len(fr.Failed))
		for _, f := range fr.Failed {
			kind := "permanent"
			if f.Transient {
				kind = "transient; raise -retries"
			}
			fmt.Fprintf(stderr, "  %-40s attempts=%d (%s): %v\n", f.Cell, f.Attempts, kind, f.Err)
		}
	}

	if interrupted {
		fmt.Fprintln(stderr, "experiments: interrupted — completed cells are preserved")
		if eff.Checkpoint != "" {
			fmt.Fprintf(stderr, "experiments: checkpoint flushed; resumable via -resume %s (same options)\n", eff.Checkpoint)
		} else {
			fmt.Fprintln(stderr, "experiments: hint: run with -resume FILE to make interrupted sweeps resumable")
		}
	} else {
		// The sweep owns the effective workload axis (trace names shadow
		// same-named profiles); report the two inputs rather than
		// re-deriving the merge here.
		wls, traces := len(eff.Workloads), len(eff.Traces)
		if wls == 0 && traces == 0 {
			wls = len(specsched.WorkloadNames()) // the sweep's default axis
		}
		axis := fmt.Sprintf("%d workloads", wls)
		switch {
		case traces > 0 && wls == 0:
			axis = fmt.Sprintf("%d traces", traces)
		case traces > 0:
			axis = fmt.Sprintf("%d workloads + %d traces", wls, traces)
		}
		fmt.Fprintf(stdout, "(completed in %.1fs, %d µ-ops simulated, %s, %d seeds, jobs=%d)\n",
			elapsed.Seconds(), sweep.SimulatedUOps(), axis, eff.Seeds, poolJobs(eff))
	}

	if *jsonOut != "" {
		rep.Runs = sweep.Snapshot()
		rep.Elapsed = elapsed.Seconds()
		rep.Simulated = sweep.SimulatedUOps()
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return fail("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintln(stdout, "wrote", *jsonOut)
	}
	switch {
	case interrupted:
		return 130
	case failed:
		return 1
	}
	return 0
}

// poolJobs is the concurrency the sweep's pool runs at: the effective
// spec's Jobs (which already follows -workers when -jobs is unset), else
// GOMAXPROCS.
func poolJobs(eff specsched.SweepSpec) int {
	if eff.Jobs > 0 {
		return eff.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// cellsReport runs the raw grid (configs × workloads × seeds) and renders
// one row per cell, in grid order. Failed cells keep their row, marked
// FAILED; the end-of-run failure summary carries their errors.
func cellsReport(ctx context.Context, sweep *specsched.Sweep) (string, error) {
	cells, err := sweep.Run(ctx)
	if cells == nil || errors.Is(err, specsched.ErrCanceled) {
		return "", err
	}
	paperIPC := make(map[string]float64)
	for _, w := range specsched.Workloads() {
		paperIPC[w.Name] = w.PaperIPC
	}
	t := results.NewTable("Per-cell results", "Config/Workload#Seed", "IPC", "paper IPC", "cycles",
		"replays", "miss", "bank", "MPKI", "L1 miss", "bank conf", "late", "note")
	for _, c := range cells {
		if c.Err != nil {
			row := make([]string, len(t.Header))
			row[0], row[len(row)-1] = c.CellRef.String(), "FAILED"
			t.AddRow(row...)
			continue
		}
		var paper interface{} = "-"
		if ipc, ok := paperIPC[c.Workload]; ok {
			paper = ipc
		}
		note := ""
		switch {
		case c.Cached:
			note = "checkpoint"
		case c.Deduped:
			note = "deduped"
		}
		r := &c.Run
		t.AddRowf(3, c.CellRef.String(), r.IPC(), paper, r.Cycles,
			r.Replayed(), r.ReplayedMiss, r.ReplayedBank, r.MPKI(), r.L1MissRate(),
			r.BankConflicts, r.LateOperands, note)
	}
	return t.String(), err
}
