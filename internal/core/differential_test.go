package core

import (
	"bytes"
	"testing"

	"specsched/internal/config"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
	"specsched/internal/uop"
)

// The event-driven scheduler (config.SchedEvent) is a pure simulator
// optimization: it must be cycle-exact against the scan implementation —
// identical cycle counts, IPC, replay counts, and every other
// architecturally meaningful counter — on every workload, replay scheme,
// and preset. The same holds for quiescent-cycle skipping (config.TimeSkip)
// on top of it: jumping simulated time event-to-event must be unobservable.
// These tests run the implementations side by side — scan, event with
// per-cycle stepping, event with skipping — and compare entire stats.Run
// records (with the simulator-side scheduler diagnostics masked, since
// only the event implementation counts wakeups, skips, and bitmap picks).

// runScan runs the scan reference. It ignores TimeSkip; pin it off so
// the variant labels stay honest.
func runScan(t *testing.T, cfg config.CoreConfig, s uop.Stream, seed uint64, warm, measure int64) *stats.Run {
	t.Helper()
	cfg.Scheduler, cfg.TimeSkip = config.SchedScan, false
	return runCfg(t, cfg, s, seed, warm, measure)
}

// runEvent runs the event-driven scheduler with quiescent-cycle skipping
// explicitly on or off — the skip differential axis.
func runEvent(t *testing.T, cfg config.CoreConfig, s uop.Stream, seed uint64, timeskip bool, warm, measure int64) *stats.Run {
	t.Helper()
	cfg.Scheduler, cfg.TimeSkip = config.SchedEvent, timeskip
	return runCfg(t, cfg, s, seed, warm, measure)
}

func runCfg(t *testing.T, cfg config.CoreConfig, s uop.Stream, seed uint64, warm, measure int64) *stats.Run {
	t.Helper()
	c, err := New(cfg, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkloadName("diff")
	return c.Run(warm, measure)
}

// diffScanEvent runs one cell three ways — scan, event stepping every
// cycle, event skipping quiescent cycles — on fresh streams from mk, and
// requires all three to agree bit for bit.
func diffScanEvent(t *testing.T, label string, cfg config.CoreConfig, mk func() uop.Stream, seed uint64, warm, measure int64) {
	t.Helper()
	scan := runScan(t, cfg, mk(), seed, warm, measure)
	event := runEvent(t, cfg, mk(), seed, false, warm, measure)
	skip := runEvent(t, cfg, mk(), seed, true, warm, measure)
	compareRuns(t, label, scan, event)
	compareRuns(t, label+"/timeskip", event, skip)
}

// profileStream makes fresh generator streams of profile p.
func profileStream(p trace.Profile) func() uop.Stream {
	return func() uop.Stream { return trace.New(p) }
}

func compareRuns(t *testing.T, label string, scan, event *stats.Run) {
	t.Helper()
	a, b := scan.MaskSchedulerCounters(), event.MaskSchedulerCounters()
	if a != b {
		t.Errorf("%s: scan and event-driven schedulers diverged\n scan: %+v\nevent: %+v",
			label, a, b)
	}
}

// TestDifferentialWorkloadsSchemesSeeds is the headline equivalence matrix:
// six Table 2 workloads × all three replay schemes × three wrong-path
// seeds, on the paper's principal configuration (SpecSched_4, banked L1).
// Every cell runs three ways — scan, event stepping every cycle, event
// skipping quiescent cycles — and all three must agree bit for bit.
func TestDifferentialWorkloadsSchemesSeeds(t *testing.T) {
	workloads := []string{"swim", "hmmer", "xalancbmk", "libquantum", "mcf", "gzip"}
	schemes := []config.ReplayScheme{
		config.RecoveryBuffer, config.IQRetention, config.SelectiveReplay,
	}
	seeds := []uint64{0, 1000, 77777}
	if testing.Short() {
		workloads = workloads[:3]
		seeds = seeds[:1]
	}
	for _, wl := range workloads {
		p, err := trace.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			for _, ds := range seeds {
				cfg, err := config.Preset("SpecSched_4")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Replay = scheme
				seed := p.Seed + ds
				diffScanEvent(t, wl+"/"+scheme.String(), cfg, profileStream(p), seed, 2000, 8000)
			}
		}
	}
}

// TestDifferentialAcrossPresets sweeps the paper's preset family (delays,
// mitigations, banked vs dual-ported L1, conservative baselines) on two
// contrasting workloads.
func TestDifferentialAcrossPresets(t *testing.T) {
	presets := []string{
		"Baseline_0", "Baseline_6", "Baseline_0_1ld",
		"SpecSched_2", "SpecSched_4_dual", "SpecSched_6",
		"SpecSched_4_Shift", "SpecSched_4_BankPred", "SpecSched_4_Ctr",
		"SpecSched_4_Filter", "SpecSched_4_Combined", "SpecSched_4_Crit",
	}
	if testing.Short() {
		presets = []string{"Baseline_0", "SpecSched_4_Crit"}
	}
	for _, preset := range presets {
		for _, wl := range []string{"xalancbmk", "swim"} {
			p, err := trace.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := config.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			diffScanEvent(t, preset+"/"+wl, cfg, profileStream(p), p.Seed, 2000, 8000)
		}
	}
}

// TestDifferentialKernels covers the exact-semantics kernels, whose issue
// patterns (serial chains, paired same-bank loads, pointer chases) stress
// wakeup ordering differently from the profile generator.
func TestDifferentialKernels(t *testing.T) {
	kernels := map[string]func() uop.Stream{
		"chase-l1":   func() uop.Stream { return trace.NewPointerChase(3, 256) },
		"chase-dram": func() uop.Stream { return trace.NewPointerChase(7, 1<<18) },
		"stream":     func() uop.Stream { return trace.NewStreamSum(16 << 10) },
		"stencil":    func() uop.Stream { return trace.NewStencil(16 << 10) },
	}
	for name, mk := range kernels {
		for _, preset := range []string{"SpecSched_4", "SpecSched_4_Crit", "Baseline_4"} {
			cfg, err := config.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			diffScanEvent(t, preset+"/"+name, cfg, mk, 11, 1000, 8000)
		}
	}
}

// TestDifferentialWideWindow checks equivalence on an enlarged machine
// (256-entry IQ, 512-entry ROB) — the regime where the scan scheduler's
// O(window) cost dominates and an event-driven bug would most plausibly
// hide behind rare structural stalls.
func TestDifferentialWideWindow(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	cfg = config.WideWindow(cfg)
	for _, wl := range []string{"mcf", "xalancbmk"} {
		p, err := trace.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		diffScanEvent(t, "IQ256/"+wl, cfg, profileStream(p), p.Seed, 2000, 8000)
	}
}

// recordStream captures n µ-ops of a stream as an in-memory trace and
// returns a replay decoder over it — the record/replay differential axis.
func recordStream(t *testing.T, s uop.Stream, n int64, wpSeed uint64) *traceio.Decoder {
	t.Helper()
	var buf bytes.Buffer
	if _, err := traceio.Record(&buf, s, n, "differential", wpSeed); err != nil {
		t.Fatal(err)
	}
	d, err := traceio.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// traceSlack is how many µ-ops past the simulation window the record/
// replay tests capture: the core fetches ahead of commit by at most the
// in-flight window (ROB + frontend + refetch buffers), so the recorded
// trace must extend past the last committed µ-op by that much.
const traceSlack = 8192

// TestDifferentialTraceReplay is the record/replay equivalence axis over
// the complete Table 2 suite: recording every workload's stream with
// internal/traceio and replaying the trace through an identical core must
// reproduce the live run's stats.Run bit for bit — every counter,
// simulator-side diagnostics included, since recording must be perfectly
// invisible. This is the contract that makes recorded traces first-class
// workloads for the experiment grids and the CI traces job.
func TestDifferentialTraceReplay(t *testing.T) {
	const warm, measure = 1000, 6000
	workloads := trace.ProfileNames()
	if testing.Short() {
		workloads = workloads[:6]
	}
	for _, wl := range workloads {
		p, err := trace.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Preset("SpecSched_4")
		if err != nil {
			t.Fatal(err)
		}
		live := runEvent(t, cfg, trace.New(p), p.Seed, true, warm, measure)

		d := recordStream(t, trace.New(p), warm+measure+traceSlack, p.Seed)
		replay := runEvent(t, cfg, d, d.Header().WrongPathSeed, true, warm, measure)
		if err := d.Err(); err != nil {
			t.Fatalf("%s: replay decoder: %v", wl, err)
		}
		if *live != *replay {
			t.Errorf("%s: trace replay diverged from live generation\n live:   %+v\n replay: %+v",
				wl, *live, *replay)
		}
	}
}

// TestDifferentialTraceReplayAcrossPresets replays one recording under
// contrasting presets (conservative baseline, principal configuration,
// full mitigations): one trace file must serve every configuration of the
// grid, exactly as the live stream does — the property the paper's
// normalization (every config over the identical instruction stream)
// depends on.
func TestDifferentialTraceReplayAcrossPresets(t *testing.T) {
	const warm, measure = 1000, 6000
	p, err := trace.ByName("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := traceio.Record(&buf, trace.New(p), warm+measure+traceSlack, "differential", p.Seed); err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Crit"} {
		cfg, err := config.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		live := runEvent(t, cfg, trace.New(p), p.Seed, true, warm, measure)
		d, err := traceio.NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		replay := runEvent(t, cfg, d, p.Seed, true, warm, measure)
		if *live != *replay {
			t.Errorf("%s: trace replay diverged from live generation\n live:   %+v\n replay: %+v",
				preset, *live, *replay)
		}
	}
}

// TestDifferentialTimeSkipAllWorkloads runs every built-in workload with
// quiescent-cycle skipping on and off under the conservative baseline, the
// principal configuration and the full mitigation stack, at a window long
// enough for DRAM-bound phases, prefetch streams and MSHR exhaustion to
// occur. The memory hierarchy contributes no skip candidate, so this is
// the matrix that would catch a fill completing inside a skipped span and
// changing what a later access sees.
func TestDifferentialTimeSkipAllWorkloads(t *testing.T) {
	const warm, measure = 10000, 60000
	workloads := trace.ProfileNames()
	if testing.Short() {
		workloads = workloads[:6]
	}
	for _, preset := range []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Crit"} {
		cfg, err := config.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads {
			p, err := trace.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			step := runEvent(t, cfg, trace.New(p), p.Seed, false, warm, measure)
			skip := runEvent(t, cfg, trace.New(p), p.Seed, true, warm, measure)
			compareRuns(t, preset+"/"+wl+"/timeskip", step, skip)
		}
	}
}

// TestDifferentialTimeSkipEngages pins the optimization itself, not just
// its safety: on memory-bound workloads — the figures this PR targets — a
// large share of simulated cycles must actually be skipped, and the skip
// must be exactly invisible in the masked statistics. A silent "never
// skips" regression would pass every equivalence test while giving up the
// speedup.
func TestDifferentialTimeSkipEngages(t *testing.T) {
	for _, tc := range []struct {
		wl, preset string
		minSkipPct float64
	}{
		{"libquantum", "SpecSched_4", 50}, // L1-miss replay stalls
		{"mcf", "SpecSched_4", 50},        // DRAM pointer chasing
		{"libquantum", "Baseline_0", 50},  // conservative (NeverHit) wakeups
		{"mcf", "SpecSched_4_Crit", 50},   // filter+criticality gating
	} {
		p, err := trace.ByName(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Preset(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		step := runEvent(t, cfg, trace.New(p), p.Seed, false, 2000, 20000)
		skip := runEvent(t, cfg, trace.New(p), p.Seed, true, 2000, 20000)
		compareRuns(t, tc.preset+"/"+tc.wl, step, skip)
		if step.SkippedCycles != 0 || step.SkipSpans != 0 {
			t.Errorf("%s/%s: skip-off run reported skips: %+v", tc.preset, tc.wl, step)
		}
		pct := 100 * float64(skip.SkippedCycles) / float64(skip.Cycles)
		if pct < tc.minSkipPct {
			t.Errorf("%s/%s: only %.1f%% of %d cycles skipped (want >= %.0f%%, %d spans)",
				tc.preset, tc.wl, pct, skip.Cycles, tc.minSkipPct, skip.SkipSpans)
		}
		if skip.SkipSpans == 0 || skip.SkippedCycles < skip.SkipSpans {
			t.Errorf("%s/%s: inconsistent skip counters: %d cycles in %d spans",
				tc.preset, tc.wl, skip.SkippedCycles, skip.SkipSpans)
		}
	}
}
