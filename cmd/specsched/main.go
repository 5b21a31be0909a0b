// Command specsched runs a single workload on a single configuration and
// prints the detailed statistics — the entry point for exploring the
// simulator interactively. It is built entirely on the public specsched
// API; see examples/quickstart for the embeddable equivalent.
//
// Usage:
//
//	specsched [-config SpecSched_4_Crit] [-workload xalancbmk]
//	          [-measure N] [-warmup N] [-scheduler event|scan] [-list]
//	          [-spec FILE] [-dump]
//
// -spec FILE runs a whole sweep from a declarative SweepSpec JSON file
// (the same wire format specschedd accepts) and prints one line per cell.
// -dump prints the effective SweepSpec of the invocation — flag-built or
// -spec-loaded — as JSON and exits, turning flags into a submittable file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"specsched"
	"specsched/presets"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	// Must run before anything else: when this process was re-exec'd as a
	// sweep cell worker, it serves cells and never returns.
	specsched.MaybeWorker()
	cfgName := flag.String("config", "SpecSched_4", "configuration preset")
	workload := flag.String("workload", "xalancbmk", "workload name")
	measure := flag.Int64("measure", 100000, "measured µ-ops")
	warmup := flag.Int64("warmup", 20000, "warmup µ-ops")
	scheduler := flag.String("scheduler", "event", "simulator wakeup/select implementation: event|scan (results are bit-identical; speed differs)")
	list := flag.Bool("list", false, "list configurations and workloads, then exit")
	specFile := flag.String("spec", "", "run a sweep from this SweepSpec JSON file instead of a single cell")
	dump := flag.Bool("dump", false, "print the effective SweepSpec as JSON and exit")
	flag.Parse()

	if *list {
		fmt.Println("configurations:")
		for _, n := range presets.Names() {
			fmt.Println("  " + n)
		}
		fmt.Println("workloads:")
		fmt.Println("  " + strings.Join(specsched.WorkloadNames(), " "))
		return
	}

	if *specFile != "" || *dump {
		runSpec(*specFile, *dump, specsched.SweepSpec{
			Configs:   []string{*cfgName},
			Workloads: []string{*workload},
			Warmup:    warmup,
			Measure:   measure,
			Scheduler: specsched.Scheduler(*scheduler),
		})
		return
	}

	sim := specsched.NewSimulator(
		specsched.WithPreset(*cfgName),
		specsched.WithWorkload(*workload),
		specsched.Warmup(*warmup),
		specsched.Measure(*measure),
		specsched.UseScheduler(specsched.Scheduler(*scheduler)),
	)
	r, err := sim.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var paperIPC float64
	for _, w := range specsched.Workloads() {
		if w.Name == *workload {
			paperIPC = w.PaperIPC
		}
	}

	fmt.Printf("workload %s on %s (%d warmup + %d measured µ-ops)\n\n",
		r.Workload, r.Config, *warmup, r.Committed)
	fmt.Printf("  IPC                 %8.3f   (paper Table 2: %.3f)\n", r.IPC(), paperIPC)
	fmt.Printf("  cycles              %8d\n", r.Cycles)
	fmt.Printf("  issued µ-ops        %8d\n", r.Issued)
	fmt.Printf("  distinct (Unique)   %8d\n", r.Unique)
	fmt.Printf("  replayed (L1 miss)  %8d   events %d\n", r.ReplayedMiss, r.MissReplayEvents)
	fmt.Printf("  replayed (bank)     %8d   events %d\n", r.ReplayedBank, r.BankReplayEvents)
	fmt.Printf("  loads               %8d   L1 miss rate %.3f, bank conflicts %d\n",
		r.Loads, r.L1MissRate(), r.BankConflicts)
	fmt.Printf("  spec wakeups        %8d   delayed wakeups %d\n", r.LoadsSpecWakeup, r.LoadsDelayedWakeup)
	fmt.Printf("  branches            %8d   mispredicts %d (%.1f MPKI)\n", r.Branches, r.Mispredicts, r.MPKI())
	fmt.Printf("  mem-order violations%8d\n", r.MemOrderViolations)
	fmt.Printf("  avg IQ / ROB occ    %8.1f / %.1f\n",
		float64(r.IQOccupancySum)/float64(r.Cycles), float64(r.ROBOccupancySum)/float64(r.Cycles))
	if specsched.Scheduler(*scheduler) != specsched.SchedulerScan {
		fmt.Printf("  scheduler (event)   %8.2f wakeups/cycle, %.2f events/cycle\n",
			r.WakeupsPerCycle(), r.EventsPerCycle())
		if r.SkipSpans > 0 {
			fmt.Printf("  time skipped        %8.1f%%   (%d of %d cycles in %d spans)\n",
				100*float64(r.SkippedCycles)/float64(r.Cycles),
				r.SkippedCycles, r.Cycles, r.SkipSpans)
		}
	}
	fmt.Printf("  simulated in        %8.0f ms (%.2f Minsts/s)\n",
		r.Elapsed.Seconds()*1e3, float64(r.Committed)/r.Elapsed.Seconds()/1e6)
}

// runSpec handles the -spec/-dump sweep modes: flagSpec is the
// flag-equivalent SweepSpec used when no file is given.
func runSpec(path string, dump bool, flagSpec specsched.SweepSpec) {
	spec := flagSpec
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		spec, err = specsched.DecodeSweepSpec(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		fatal(err)
	}
	if dump {
		data, err := json.MarshalIndent(sweep.Spec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	failed := false
	for cell, cerr := range sweep.Results(context.Background()) {
		if cell.CellRef == (specsched.CellRef{}) && cerr != nil {
			fatal(cerr)
		}
		switch {
		case cerr != nil:
			failed = true
			fmt.Printf("%-40s FAILED: %v\n", cell.CellRef, cerr)
		default:
			note := ""
			if cell.Cached {
				note = "  (checkpoint)"
			}
			if cell.Deduped {
				note = "  (deduped)"
			}
			fmt.Printf("%-40s IPC %6.3f  cycles %9d  replays %d%s\n",
				cell.CellRef, cell.Run.IPC(), cell.Run.Cycles,
				cell.Run.ReplayedMiss+cell.Run.ReplayedBank, note)
		}
	}
	if failed {
		os.Exit(1)
	}
}
