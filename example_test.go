package specsched_test

import (
	"context"
	"fmt"

	"specsched"
)

// ExampleNewSweepFromSpec sweeps two configurations over one workload and
// prints each cell's IPC. Every knob is a SweepSpec field; cells are
// bit-identical for any Jobs or Workers, so the output is exact.
func ExampleNewSweepFromSpec() {
	warmup, measure := int64(1000), int64(5000)
	sweep, err := specsched.NewSweepFromSpec(specsched.SweepSpec{
		Configs:   []string{"Baseline_0", "SpecSched_4"},
		Workloads: []string{"gzip"},
		Warmup:    &warmup,
		Measure:   &measure,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	cells, err := sweep.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, c := range cells {
		fmt.Printf("%-12s %s IPC %.3f\n", c.Config, c.Workload, c.Run.IPC())
	}
	// Output:
	// Baseline_0   gzip IPC 0.650
	// SpecSched_4  gzip IPC 0.634
}
