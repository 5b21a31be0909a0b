package core

import (
	"bytes"
	"fmt"
	"testing"

	"specsched/internal/config"
	"specsched/internal/rng"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
	"specsched/internal/uop"
)

// randomProfile synthesizes an arbitrary-but-valid workload profile from a
// seed, spanning the generator's parameter space more broadly than the
// calibrated suite does.
func randomProfile(seed uint64) trace.Profile {
	r := rng.New(seed)
	kinds := []trace.AgenKind{trace.AgenStride, trace.AgenRandom, trace.AgenChase}
	nAgens := 1 + r.Intn(4)
	agens := make([]trace.AgenSpec, nAgens)
	for i := range agens {
		agens[i] = trace.AgenSpec{
			Kind:      kinds[r.Intn(len(kinds))],
			Footprint: 1 << (10 + r.Intn(14)), // 1KB .. 8MB
			Stride:    8 << r.Intn(4),         // 8..64
			Weight:    0.1 + r.Float64(),
		}
	}
	return trace.Profile{
		Name:             fmt.Sprintf("fuzz-%d", seed),
		Seed:             seed,
		Blocks:           2 + r.Intn(30),
		BlockLen:         1 + r.Intn(16),
		LoadFrac:         r.Float64() * 0.5,
		StoreFrac:        r.Float64() * 0.3,
		FPFrac:           r.Float64(),
		MulDivFrac:       r.Float64() * 0.3,
		MeanDepDist:      1 + r.Float64()*10,
		UseBaseFrac:      r.Float64(),
		AddrDepFrac:      r.Float64() * 0.6,
		LoadUseFrac:      r.Float64(),
		Agens:            agens,
		InnerLoopFrac:    r.Float64() * 0.7,
		LoopTrip:         2 + r.Intn(64),
		SkipFrac:         r.Float64() * 0.4,
		SkipBias:         0.5 + r.Float64()*0.5,
		RandomBranchFrac: r.Float64() * 0.2,
	}
}

// randomConfig perturbs a preset within valid bounds.
func randomConfig(seed uint64) config.CoreConfig {
	r := rng.New(seed ^ 0xc0ffee)
	presets := []string{"Baseline_0", "Baseline_2", "Baseline_4", "Baseline_6",
		"SpecSched_2", "SpecSched_4", "SpecSched_6", "SpecSched_4_Shift",
		"SpecSched_4_Ctr", "SpecSched_4_Filter", "SpecSched_4_Combined", "SpecSched_4_Crit"}
	cfg, err := config.Preset(presets[r.Intn(len(presets))])
	if err != nil {
		panic(err)
	}
	// Structural perturbations.
	cfg.IQEntries = 16 + r.Intn(64)
	cfg.ROBEntries = 64 + r.Intn(192)
	cfg.LQEntries = 16 + r.Intn(64)
	cfg.SQEntries = 16 + r.Intn(48)
	cfg.IssueWidth = 2 + r.Intn(6)
	cfg.RetireWidth = 2 + r.Intn(8)
	cfg.MaxLoadsPerCycle = 1 + r.Intn(2)
	switch r.Intn(3) {
	case 0:
		cfg.Replay = config.RecoveryBuffer
	case 1:
		cfg.Replay = config.IQRetention
	case 2:
		cfg.Replay = config.SelectiveReplay
	}
	if r.Bool(0.3) {
		cfg.L1Interleave = config.SetInterleave
	}
	if r.Bool(0.2) {
		cfg.SingleLineBuffer = false
	}
	if r.Bool(0.2) {
		cfg.PrefetchEnable = false
	}
	// Exercise both wakeup/select implementations and both time-advance
	// modes; the differential fuzz below additionally pins them against
	// each other.
	if r.Bool(0.5) {
		cfg.Scheduler = config.SchedScan
	} else {
		cfg.Scheduler = config.SchedEvent
	}
	cfg.TimeSkip = r.Bool(0.5)
	cfg.Name = fmt.Sprintf("fuzz-cfg-%d", seed)
	return cfg
}

// TestFuzzCoreInvariants drives random configurations against random
// workloads and checks the machine's global invariants: it makes forward
// progress, never executes a µ-op before its operands are on the bypass,
// and commits exactly the correct path.
func TestFuzzCoreInvariants(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		seed := uint64(i*7919 + 13)
		cfg := randomConfig(seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid config: %v", seed, err)
		}
		prof := randomProfile(seed)
		if err := prof.Validate(); err != nil {
			// Some random mixes are rejected by design; skip them.
			continue
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("seed %d (cfg %s, profile %s): panic: %v",
						seed, cfg.Name, prof.Name, rec)
				}
			}()
			c := MustNew(cfg, trace.New(prof), seed)
			c.SetWorkloadName(prof.Name)
			r := c.Run(1000, 6000)
			if r.Committed < 6000 {
				t.Fatalf("seed %d: committed only %d", seed, r.Committed)
			}
			if r.LateOperands != 0 {
				t.Errorf("seed %d (cfg %s): %d late operands", seed, cfg.Name, r.LateOperands)
			}
			// µ-ops issued during warmup may commit inside the
			// measurement window, so Unique can trail Committed by up
			// to the in-flight window.
			if r.Unique+1000 < r.Committed {
				t.Errorf("seed %d: unique (%d) far below committed (%d)", seed, r.Unique, r.Committed)
			}
			if r.Issued < r.Unique {
				t.Errorf("seed %d: issued (%d) < unique (%d)", seed, r.Issued, r.Unique)
			}
		}()
	}
}

// TestFuzzDifferentialScanVsEvent drives random configurations against
// random workloads under four variants — the scan implementation, the
// event-driven implementation stepping every cycle, the event-driven
// implementation with quiescent-cycle skipping, and the same replaying a
// recorded trace of the same stream — and requires bit-identical
// statistics from all of them: the strongest evidence that the
// event-driven rewrite, time skipping, and trace record/replay all model
// exactly the same machine across the whole configuration space (window
// sizes, widths, replay schemes, interleavings).
func TestFuzzDifferentialScanVsEvent(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	const warm, measure = 1000, 6000
	variants := []struct {
		label    string
		impl     config.SchedulerImpl
		timeskip bool
		replay   bool
	}{
		{"scan", config.SchedScan, false, false},
		{"event", config.SchedEvent, false, false},
		{"event+skip", config.SchedEvent, true, false},
		{"event+skip+replay", config.SchedEvent, true, true},
	}
	for i := 0; i < n; i++ {
		seed := uint64(i*104729 + 7)
		cfg := randomConfig(seed)
		prof := randomProfile(seed)
		if prof.Validate() != nil {
			continue
		}
		runs := make([]*stats.Run, len(variants))
		for k, v := range variants {
			cfg := cfg
			cfg.Scheduler = v.impl
			cfg.TimeSkip = v.timeskip
			stream := uop.Stream(trace.New(prof))
			if v.replay {
				var buf bytes.Buffer
				if _, err := traceio.Record(&buf, stream, warm+measure+8192, "fuzz", seed); err != nil {
					t.Fatalf("seed %d: record: %v", seed, err)
				}
				d, err := traceio.NewDecoder(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				stream = d
			}
			c := MustNew(cfg, stream, seed)
			c.SetWorkloadName(prof.Name)
			runs[k] = c.Run(warm, measure)
		}
		ref := runs[0].MaskSchedulerCounters()
		for k := 1; k < len(variants); k++ {
			if got := runs[k].MaskSchedulerCounters(); ref != got {
				t.Errorf("seed %d (cfg %s, profile %s): %s diverged from %s\n %s: %+v\n %s: %+v",
					seed, cfg.Name, prof.Name, variants[k].label, variants[0].label,
					variants[0].label, ref, variants[k].label, got)
			}
		}
	}
}

// TestFuzzKernelsAcrossConfigs runs each exact-semantics kernel under a
// spread of presets and checks the scoreboard invariant.
func TestFuzzKernelsAcrossConfigs(t *testing.T) {
	for _, preset := range []string{"Baseline_0", "Baseline_6", "SpecSched_2",
		"SpecSched_4", "SpecSched_4_Shift", "SpecSched_4_Crit", "SpecSched_6"} {
		cfg, err := config.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		streams := map[string]func() uop.Stream{
			"chase":   func() uop.Stream { return trace.NewPointerChase(3, 256) },
			"stream":  func() uop.Stream { return trace.NewStreamSum(16 << 10) },
			"stencil": func() uop.Stream { return trace.NewStencil(16 << 10) },
		}
		for name, mkS := range streams {
			c := MustNew(cfg, mkS(), 11)
			c.SetWorkloadName(name)
			r := c.Run(1000, 8000)
			if r.LateOperands != 0 {
				t.Errorf("%s/%s: %d late operands", preset, name, r.LateOperands)
			}
			if r.Committed < 8000 {
				t.Errorf("%s/%s: committed only %d", preset, name, r.Committed)
			}
		}
	}
}
