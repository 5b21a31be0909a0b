// Quickstart: simulate one SPEC-like workload on the paper's SpecSched_4
// configuration and print the scheduling statistics — the minimal
// embedding of the public specsched API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"specsched"
)

func main() {
	ctx := context.Background()

	// Pick a workload from the Table 2 suite and a machine configuration:
	// speculative scheduling with a 4-cycle issue-to-execute delay and a
	// banked L1 (the paper's baseline speculative scheme, "Always Hit").
	// Warm the caches and predictors, then measure.
	r, err := specsched.NewSimulator(
		specsched.WithWorkload("xalancbmk"),
		specsched.WithPreset("SpecSched_4"),
		specsched.Warmup(20000),
		specsched.Measure(100000),
	).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s:\n", r.Workload, r.Config)
	fmt.Printf("  IPC %.3f over %d cycles\n", r.IPC(), r.Cycles)
	fmt.Printf("  %d µ-ops issued for %d committed (%.2fx)\n",
		r.Issued, r.Committed, float64(r.Issued)/float64(r.Committed))
	fmt.Printf("  %d replayed after L1 misses, %d after bank conflicts\n",
		r.ReplayedMiss, r.ReplayedBank)
	fmt.Printf("  L1 load miss rate %.1f%%, %d bank conflicts\n",
		100*r.L1MissRate(), r.BankConflicts)

	// Now the same workload with the paper's best scheme: Schedule
	// Shifting + hit/miss filter + criticality gating.
	r2, err := specsched.NewSimulator(
		specsched.WithWorkload("xalancbmk"),
		specsched.WithPreset("SpecSched_4_Crit"),
		specsched.Warmup(20000),
		specsched.Measure(100000),
	).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%s on %s:\n", r2.Workload, r2.Config)
	fmt.Printf("  IPC %.3f (%+.1f%%)\n", r2.IPC(), 100*(r2.IPC()/r.IPC()-1))
	fmt.Printf("  replays: %d -> %d (%.1f%% removed)\n",
		r.Replayed(), r2.Replayed(),
		100*(1-float64(r2.Replayed())/float64(r.Replayed())))
}
