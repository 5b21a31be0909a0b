// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator from outside, through the public specsched façade, in one of
// two workloads (see README.md for why each exists):
//
//	figs   paper figure reports over six synthetic workloads
//	serve  the sweep daemon on loopback HTTP, fresh and cached jobs
//
// Each workload is a closed loop of jobs: a fresh job simulates, a hit job
// is served from a cache. With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it records spans around calls into the internal
// layers and prints the per-layer metrics derived from them. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"specsched"
)

// defaultSeed is the seed whose output digests are stored in digests.json.
const defaultSeed = 1

func main() {
	// A worker subprocess of the figs traced run re-executes this binary;
	// it must serve cells before anything else runs.
	specsched.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (job mix, windows)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for corpora, daemon state and span files")
	tiny := fs.Bool("tiny", false, "self-test size: small windows, one set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = *traced == 1
	o.scale = defaultScale
	if *tiny {
		o.scale = tinyScale
	}

	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := filepath.Abs(o.out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.out = out
	o.log = stderr
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))

	var res result
	if o.trace {
		res, err = runTraced(context.Background(), o, wl)
	} else {
		res, err = runUntraced(context.Background(), o, wl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	scale    scale
	log      io.Writer
}

// scale sizes a run. defaultScale is what the benchmark measures;
// tinyScale only proves in the self-test that every path works.
type scale struct {
	warmup, measure           int64 // figs windows
	serveWarmup, serveMeasure int64 // serve job windows
	setupReps                 int   // set-ups per run; setup_s is their median
	digestJobs                int   // serve: jobs with a lower index feed the digest
	layerCells                int   // traced run: core cells driven per workload
}

var defaultScale = scale{
	warmup: specsched.DefaultWarmup, measure: specsched.DefaultMeasure,
	serveWarmup: 5000, serveMeasure: 25000,
	setupReps: 5, digestJobs: 128, layerCells: 6,
}

var tinyScale = scale{
	warmup: 2000, measure: 6000,
	serveWarmup: 1000, serveMeasure: 3000,
	setupReps: 1, digestJobs: 8, layerCells: 2,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
