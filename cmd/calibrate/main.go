// Command calibrate is the workload calibration harness: it runs every
// workload on one configuration and prints measured vs. paper IPC.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"specsched"
)

func main() {
	cfgName := flag.String("config", "Baseline_0", "preset")
	n := flag.Int64("n", 60000, "measured µ-ops")
	flag.Parse()
	ctx := context.Background()
	for _, w := range specsched.Workloads() {
		r, err := specsched.NewSimulator(
			specsched.WithPreset(*cfgName),
			specsched.WithWorkload(w.Name),
			specsched.Warmup(*n/5),
			specsched.Measure(*n),
		).Run(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		fmt.Printf("%-11s ipc=%.3f paper=%.3f mpki=%4.1f l1miss=%.3f conf=%5d rpldM=%6d rpldB=%6d late=%d\n",
			w.Name, r.IPC(), w.PaperIPC, r.MPKI(), r.L1MissRate(), r.BankConflicts,
			r.ReplayedMiss, r.ReplayedBank, r.LateOperands)
	}
}
