// Issue-to-execute delay sweep (Fig. 3 and Fig. 4 of the paper).
//
// This example builds a custom pointer-heavy workload through the public
// Profile API and sweeps the issue-to-execute delay from 0 to 6 cycles,
// once with conservative scheduling (dependents wait for load data) and
// once with speculative scheduling — reproducing, for one workload, the
// shape of the paper's Figures 3 and 4a.
//
// Run with:
//
//	go run ./examples/delaysweep
package main

import (
	"context"
	"fmt"
	"log"

	"specsched"
	"specsched/presets"
	"specsched/results"
)

func main() {
	ctx := context.Background()

	// A custom profile: L1-resident data, pointer arithmetic putting
	// loads on the critical path, predictable branches.
	workload := specsched.CustomWorkload(specsched.Profile{
		Name: "pointer-loop", Seed: 99,
		Blocks: 8, BlockLen: 8,
		LoadFrac: 0.3, StoreFrac: 0.08,
		MeanDepDist: 3, UseBaseFrac: 0.3,
		AddrDepFrac: 0.4, LoadUseFrac: 0.7,
		Agens: []specsched.AgenSpec{
			{Kind: specsched.AgenRandom, Footprint: 8 << 10, Weight: 1},
		},
		InnerLoopFrac: 0.5, LoopTrip: 32,
		SkipFrac: 0.2, SkipBias: 0.95,
	})

	run := func(preset string) results.Run {
		r, err := specsched.NewSimulator(
			specsched.WithWorkloadSpec(workload),
			specsched.WithPreset(preset),
			specsched.WithSeed(99),
			specsched.Warmup(10000),
			specsched.Measure(60000),
		).Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Println("pointer-loop kernel, IPC vs issue-to-execute delay")
	fmt.Println()
	tb := results.NewTable("", "delay", "conservative", "speculative", "replayed µ-ops")
	for _, d := range presets.Delays() {
		rc := run(presets.Baseline(d))        // conservative: wait for data
		rs := run(presets.SpecSched(d, true)) // speculative, banked L1
		tb.AddRowf(3, d, rc.IPC(), rs.IPC(), rs.Replayed())
	}
	fmt.Println(tb.String())
	fmt.Println("Conservative scheduling pays the full issue-to-execute delay on every")
	fmt.Println("load-use chain; speculative scheduling hides it, at the price of")
	fmt.Println("replays when a load misses or hits a bank conflict.")
}
