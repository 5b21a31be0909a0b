package core

import (
	"runtime"
	"testing"

	"specsched/internal/config"
	"specsched/internal/trace"
)

// TestSteadyStateZeroAllocs is the allocation regression guard for the
// event-driven scheduler: after warmup, the simulate loop must not
// allocate at all — the inst pool, pre-sized FIFO buffers, timing-wheel
// slots, and scratch slices absorb every steady-state need. Run on
// contrasting workloads (cache-resident high-IPC, DRAM-bound, and
// mispredict-heavy, which exercises the squash/refetch path).
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		wl     string
		preset string
	}{
		{"gzip", "SpecSched_4"},
		{"swim", "SpecSched_4_Crit"},
		{"libquantum", "SpecSched_4"},
		{"twolf", "Baseline_0"},
	} {
		p, err := trace.ByName(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Preset(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		c := MustNew(cfg, trace.New(p), p.Seed)
		// Warm until pools, buffers, and wheel slots reach steady size.
		c.Run(60000, 1)
		avg := testing.AllocsPerRun(20, func() {
			for i := 0; i < 2000; i++ {
				c.Step()
			}
		})
		if avg != 0 {
			t.Errorf("%s/%s: %.1f allocations per 2000 steady-state cycles, want 0",
				tc.preset, tc.wl, avg)
		}
		// The quiescent-cycle skip path (stepTo with config.TimeSkip) must
		// be just as clean: quiesceTarget only reads, skipQuiescent only
		// bumps counters.
		avg = testing.AllocsPerRun(20, func() {
			c.Run(0, 500)
		})
		if avg != 0 {
			t.Errorf("%s/%s: %.1f allocations per 500 committed µ-ops through stepTo, want 0",
				tc.preset, tc.wl, avg)
		}
	}
}

// TestCoreNewFootprint pins the bytes one core.New allocates. Every sweep
// cell builds a fresh core, so this is per-cell garbage: the L1D
// occupancy ring starts small and grows on demand, the replay wheel is
// sized to its horizon, branch-only state lives in pooled per-branch
// records instead of every µ-op record, the µ-op record holds only state a
// later stage reads, and the tag arrays keep recency by way order instead
// of a stamp per line.
func TestCoreNewFootprint(t *testing.T) {
	const limit = 111 << 20 / 100 // 1.11 MiB
	for _, preset := range []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Crit"} {
		cfg, err := config.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.ByName("gzip")
		if err != nil {
			t.Fatal(err)
		}
		stream := trace.New(p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := MustNew(cfg, stream, p.Seed)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: core.New allocated %d B (%.2f MiB)", preset, got, float64(got)/(1<<20))
		if got > limit {
			t.Errorf("%s: core.New allocated %d B, want <= %d (1.11 MiB)", preset, got, limit)
		}
	}
}
