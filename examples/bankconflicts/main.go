// Bank conflicts and Schedule Shifting (§5.1 of the paper).
//
// The stencil kernel loads a[i] and b[i] every iteration; the arrays are
// laid out so both loads map to the same L1 bank in different sets. Issued
// in the same cycle, the second access is delayed by the bank conflict and
// every dependent scheduled assuming a normal hit must be replayed.
// Schedule Shifting wakes dependents of the second load one cycle late,
// absorbing the conflict.
//
// Run with:
//
//	go run ./examples/bankconflicts
package main

import (
	"context"
	"fmt"
	"log"

	"specsched"
	"specsched/presets"
	"specsched/results"
)

func run(ctx context.Context, preset string) results.Run {
	r, err := specsched.NewSimulator(
		specsched.WithWorkloadSpec(specsched.StencilWorkload(8<<10)),
		specsched.WithPreset(preset),
		specsched.Warmup(10000),
		specsched.Measure(80000),
	).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	ctx := context.Background()
	dual := run(ctx, presets.SpecSched(4, false)) // ideal dual-ported L1: no conflicts
	base := run(ctx, presets.SpecSched(4, true))  // banked L1, plain speculative scheduling
	shift := run(ctx, presets.Shift(4))

	fmt.Println("stencil kernel: c[i] = a[i] + b[i], same-bank load pairs")
	fmt.Println()
	tb := results.NewTable("", "config", "IPC", "bank conflicts", "bank replays", "issued")
	for _, r := range []results.Run{dual, base, shift} {
		tb.AddRowf(3, r.Config, r.IPC(), r.BankConflicts, r.ReplayedBank, r.Issued)
	}
	fmt.Println(tb.String())

	lost := 1 - base.IPC()/dual.IPC()
	rec := (shift.IPC() - base.IPC()) / dual.IPC()
	fmt.Printf("banking costs %.1f%% of the dual-ported IPC; Shifting recovers %.1f points\n",
		100*lost, 100*rec)
	fmt.Printf("bank-conflict replays removed by Shifting: %.1f%% (paper, suite-wide: 74.8%%)\n",
		100*(1-float64(shift.ReplayedBank)/float64(base.ReplayedBank)))
}
