package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"specsched"
	"specsched/results"
)

// figsReports are the paper reports figs regenerates. fig7 and fig8 are
// the figures whose throughput sagged below earlier baselines.
var figsReports = []string{"table2", "fig7", "fig8"}

// figsConfigs are the presets those reports simulate.
var figsConfigs = []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Ctr",
	"SpecSched_4_Filter", "SpecSched_4_Combined", "SpecSched_4_Crit"}

// figsBench is the figs workload. Set-up regenerates every report over
// all six workloads on one Sweep. A fresh job regenerates one report for
// one workload on a new Sweep, so every cell simulates in-process; a hit
// job asks the set-up's Sweep for all three reports again, which it
// renders from its cache.
type figsBench struct {
	o      options
	warmup int64
	grid   *specsched.Sweep  // every report over every workload, cached
	want   map[string]string // each report's text over the grid
	ref    map[string]string // canonical record per config/workload
	runs   []results.Run     // reference records, digest order
}

func setupFigs(ctx context.Context, o options, rep int) (bench, error) {
	b := &figsBench{
		o:      o,
		warmup: windowWarmup(o.scale.warmup, o.seed),
		want:   map[string]string{},
		ref:    map[string]string{},
	}
	b.grid = specsched.NewSweep(specsched.SweepWorkloads(benchWorkloads...), specsched.SweepJobs(runtime.NumCPU()),
		specsched.SweepWarmup(b.warmup), specsched.SweepMeasure(o.scale.measure))
	for _, fig := range figsReports {
		text, err := b.grid.Report(ctx, fig)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig, err)
		}
		b.want[fig] = text
	}
	b.runs = b.grid.Snapshot()
	for _, r := range b.runs {
		c, err := canonical(r)
		if err != nil {
			return nil, err
		}
		b.ref[r.Config+"/"+r.Workload] = c
	}
	if rep == 0 {
		b.printTable2()
	}
	return b, nil
}

// printTable2 prints measured Baseline_0 IPC beside the paper's Table 2.
// The profiles were tuned to these values, so the gap is a calibration
// residual for information, not a validation.
func (b *figsBench) printTable2() {
	fmt.Fprintf(b.o.log, "Table 2 IPC (calibration residual, information only):\n")
	for _, info := range specsched.Workloads() {
		for _, r := range b.runs {
			if r.Config == "Baseline_0" && r.Workload == info.Name {
				fmt.Fprintf(b.o.log, "  %-11s measured %.3f paper %.3f (%+.1f%%)\n",
					info.Name, r.IPC(), info.PaperIPC, 100*(r.IPC()/info.PaperIPC-1))
			}
		}
	}
}

func (b *figsBench) do(ctx context.Context, idx int) job {
	// Each block holds one fresh job per (report, workload) and as many hits.
	// A hit re-renders all three reports: sub-millisecond work, so one
	// report alone would be timed mostly against GC and scheduler jitter.
	slot := planSlot(b.o.seed, idx, b.block(), 0xf165)
	fig := figsReports[slot/2%len(figsReports)]
	wl := benchWorkloads[slot/2/len(figsReports)]
	j := job{fresh: slot%2 == 0, start: time.Now()}
	if !j.fresh {
		for _, fig := range figsReports {
			text, err := b.grid.Report(ctx, fig)
			switch {
			case err != nil:
				j.fail = err.Error()
			case text != b.want[fig]:
				j.fail = fig + " report differs from the set-up's"
			}
		}
		j.end = time.Now()
		return j
	}
	sw := specsched.NewSweep(specsched.SweepWorkloads(wl), specsched.SweepJobs(1),
		specsched.SweepWarmup(b.warmup), specsched.SweepMeasure(b.o.scale.measure))
	_, err := sw.Report(ctx, fig)
	j.end = time.Now()
	if err != nil {
		j.fail = err.Error()
		return j
	}
	j.uops = sw.SimulatedUOps()
	for _, r := range sw.Snapshot() {
		j.cells++
		if c, err := canonical(r); err != nil || c != b.ref[r.Config+"/"+r.Workload] {
			j.fail = fmt.Sprintf("%s/%s record differs from the set-up's", r.Config, r.Workload)
		}
	}
	return j
}

func (b *figsBench) block() int { return 2 * len(figsReports) * len(benchWorkloads) }

func (b *figsBench) records() []results.Run { return b.runs }

func (b *figsBench) digestsJobs() bool { return false }

func (b *figsBench) layers() layerPlan {
	return layerPlan{configs: figsConfigs, warmup: b.warmup, measure: b.o.scale.measure,
		traceio: true, workers: true}
}

func (b *figsBench) close() {}
