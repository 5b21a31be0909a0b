package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
)

// syntheticGrid is a simulation-free GridFunc: a cell's counters are a
// pure function of its (config, workload, seed) identity, so every report
// renders varied, deterministic numbers in milliseconds.
func syntheticGrid(_ context.Context, cells []sim.Cell) ([]sim.Result, error) {
	res := make([]sim.Result, len(cells))
	for i, c := range cells {
		res[i] = sim.Result{Cell: c, Run: syntheticRun(c)}
	}
	return res, nil
}

func syntheticRun(c sim.Cell) *stats.Run {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", c.Config.Name, c.Workload, c.SeedIdx)
	x := h.Sum64()
	next := func(n int64) int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>33) % n
	}
	run := &stats.Run{Workload: c.Workload, Config: c.Config.Name}
	run.Cycles = 40000 + next(40000)
	run.Committed = 20000 + next(60000)
	run.Unique = run.Committed + next(5000)
	run.ReplayedMiss = next(6000)
	run.ReplayedBank = next(4000)
	run.Issued = run.Unique + run.ReplayedMiss + run.ReplayedBank
	run.Loads = run.Committed/4 + next(1000)
	run.L1Misses = next(run.Loads/5 + 1)
	run.L1Hits = run.Loads - run.L1Misses
	run.Branches = run.Committed/6 + next(500)
	run.Mispredicts = next(run.Branches/20 + 1)
	return run
}

const reportsGolden = "testdata/reports.golden"

// TestReportsGolden renders every Names() report over synthetic counters
// for every preset × Table 2 workload and compares the text to a committed
// golden, byte for byte: report rendering may get faster, never different.
// Each report renders twice, the second time from the runner's cache, and
// both renders must agree. Regenerate (only for an intended report change)
// with:
//
//	SPECSCHED_UPDATE_REPORTS=1 go test -run TestReportsGolden ./internal/experiments
func TestReportsGolden(t *testing.T) {
	r := NewRunner(trace.ProfileNames(), 1, syntheticGrid)
	var b strings.Builder
	for _, name := range Names() {
		first, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cached, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s (cached): %v", name, err)
		}
		if cached != first {
			t.Fatalf("%s: cached render differs from the first:\n%s\n---\n%s", name, first, cached)
		}
		fmt.Fprintf(&b, "##### %s\n%s", name, first)
	}
	got := b.String()
	if os.Getenv("SPECSCHED_UPDATE_REPORTS") != "" {
		if err := os.WriteFile(reportsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", reportsGolden)
		return
	}
	want, err := os.ReadFile(reportsGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with SPECSCHED_UPDATE_REPORTS=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("reports differ from %s at line %d:\n got  %q\n want %q", reportsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports differ from %s in length: %d lines, want %d", reportsGolden, len(gl), len(wl))
	}
}
