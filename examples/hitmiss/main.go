// Hit/miss filtering and criticality gating (§5.2, §5.3 of the paper).
//
// A libquantum-like workload streams through a DRAM-sized array: nearly
// every load misses the L1, so scheduling dependents "assuming a hit"
// replays constantly. The Alpha-style global counter, the per-PC filter,
// and criticality gating each remove a progressively larger share of those
// replays while keeping the speculation benefits on the loads that do hit.
//
// Run with:
//
//	go run ./examples/hitmiss
package main

import (
	"context"
	"fmt"
	"log"

	"specsched"
	"specsched/results"
)

func main() {
	ctx := context.Background()

	fmt.Println("libquantum-like stream (most loads miss the L1)")
	fmt.Println()
	tb := results.NewTable("", "config", "IPC", "miss replays", "spec wakeups", "delayed wakeups")
	for _, cfgName := range []string{
		"SpecSched_4",        // Always Hit
		"SpecSched_4_Ctr",    // global 4-bit counter
		"SpecSched_4_Filter", // per-PC filter + counter
		"SpecSched_4_Crit",   // + criticality gating
	} {
		r, err := specsched.NewSimulator(
			specsched.WithWorkload("libquantum"),
			specsched.WithPreset(cfgName),
			specsched.Warmup(15000),
			specsched.Measure(80000),
		).Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRowf(3, r.Config, r.IPC(), r.ReplayedMiss, r.LoadsSpecWakeup, r.LoadsDelayedWakeup)
	}
	fmt.Println(tb.String())
	fmt.Println("The filter learns per-PC \"sure miss\" loads and stops waking their")
	fmt.Println("dependents; criticality gating additionally stalls dependents of")
	fmt.Println("non-critical loads whose behaviour the filter cannot pin down.")
}
