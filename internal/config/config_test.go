package config

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	if c.IssueWidth != 6 || c.IQEntries != 60 || c.ROBEntries != 192 {
		t.Fatalf("Default() does not match Table 1: %+v", c)
	}
	if c.L1D.Sets() != 64 {
		t.Fatalf("L1D sets = %d, want 64 (32KB/8way/64B)", c.L1D.Sets())
	}
	if c.L2.Sets() != 1024 {
		t.Fatalf("L2 sets = %d, want 1024 (1MB/16way/64B)", c.L2.Sets())
	}
}

func TestAllPresetsValid(t *testing.T) {
	for _, name := range Presets() {
		c, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if c.Name != name {
			t.Fatalf("Preset(%q).Name = %q", name, c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := Preset("SpecSched_3"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestPresetsSortedAndComplete(t *testing.T) {
	names := Presets()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Presets() not sorted: %v", names)
	}
	// 1 single-load baseline + 9 families × 4 delays.
	if want := 1 + 9*len(PresetDelays()); len(names) != want {
		t.Fatalf("Presets() lists %d names, want %d", len(names), want)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate preset name %q", n)
		}
		seen[n] = true
	}
}

func TestPresetWideWindowSuffix(t *testing.T) {
	c, err := Preset("Baseline_0_IQ256")
	if err != nil {
		t.Fatal(err)
	}
	want := WideWindow(Baseline(0))
	if c.Name != "Baseline_0_IQ256" || c.IQEntries != 256 || c.Digest() != want.Digest() {
		t.Fatalf("Preset(Baseline_0_IQ256) = %+v, want WideWindow(Baseline_0)", c)
	}
	if _, err := Preset("Nope_IQ256"); err == nil {
		t.Fatal("unknown base preset with _IQ256 suffix must fail")
	}
	if _, err := Preset("_IQ256"); err == nil {
		t.Fatal("bare _IQ256 must fail")
	}
}

func TestBranchPenaltyConstantAcrossDelays(t *testing.T) {
	// §3.1: the frontend shrinks as the backend deepens so that the
	// minimum misprediction penalty stays at 20 cycles.
	base := Baseline(0)
	basePathLen := base.FrontendDepth + base.ExecuteStageOffset()
	for _, d := range []int{2, 4, 6} {
		c := Baseline(d)
		if got := c.FrontendDepth + c.ExecuteStageOffset(); got != basePathLen {
			t.Fatalf("delay %d: frontend+backend = %d, want %d", d, got, basePathLen)
		}
	}
}

func TestExecuteStageOffset(t *testing.T) {
	c := Baseline(4)
	if c.ExecuteStageOffset() != 5 {
		// The paper: with a 4-cycle delay, a µ-op issued at cycle 0
		// executes at cycle 5.
		t.Fatalf("ExecuteStageOffset = %d, want 5", c.ExecuteStageOffset())
	}
}

func TestPresetFlags(t *testing.T) {
	cases := []struct {
		cfg    CoreConfig
		spec   bool
		banked bool
		shift  bool
		crit   bool
		policy HitMissPolicy
	}{
		{Baseline(4), false, false, false, false, NeverHit},
		{SpecSched(4, true), true, true, false, false, AlwaysHit},
		{SpecSched(4, false), true, false, false, false, AlwaysHit},
		{SpecSchedShift(4), true, true, true, false, AlwaysHit},
		{SpecSchedCtr(4), true, true, false, false, GlobalCounter},
		{SpecSchedFilter(4), true, true, false, false, FilterAndCounter},
		{SpecSchedCombined(4), true, true, true, false, FilterAndCounter},
		{SpecSchedCrit(4), true, true, true, true, FilterAndCounter},
	}
	for _, tc := range cases {
		c := tc.cfg
		if c.SpecSched != tc.spec || c.BankedL1 != tc.banked ||
			c.ScheduleShifting != tc.shift || c.CriticalityGate != tc.crit ||
			c.HitMiss != tc.policy {
			t.Errorf("%s: flags mismatch: spec=%t banked=%t shift=%t crit=%t policy=%v",
				c.Name, c.SpecSched, c.BankedL1, c.ScheduleShifting,
				c.CriticalityGate, c.HitMiss)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*CoreConfig)
	}{
		{"negative delay", func(c *CoreConfig) { c.IssueToExecuteDelay = -1 }},
		{"zero issue width", func(c *CoreConfig) { c.IssueWidth = 0 }},
		{"zero IQ", func(c *CoreConfig) { c.IQEntries = 0 }},
		{"zero LQ", func(c *CoreConfig) { c.LQEntries = 0 }},
		{"tiny PRF", func(c *CoreConfig) { c.IntPRF = 10 }},
		{"bad load capacity", func(c *CoreConfig) { c.MaxLoadsPerCycle = 3 }},
		{"bad L1 geometry", func(c *CoreConfig) { c.L1D.SizeBytes = 1000 }},
		{"bad bank count", func(c *CoreConfig) { c.BankedL1 = true; c.L1Banks = 6 }},
		{"zero frontend", func(c *CoreConfig) { c.FrontendDepth = 0 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate did not report an error", m.name)
		}
	}
}

func TestSingleLoadPreset(t *testing.T) {
	c := BaselineSingleLoad()
	if c.MaxLoadsPerCycle != 1 {
		t.Fatalf("MaxLoadsPerCycle = %d, want 1", c.MaxLoadsPerCycle)
	}
	got, err := Preset("Baseline_0_1ld")
	if err != nil || got.MaxLoadsPerCycle != 1 {
		t.Fatalf("Preset lookup of single-load baseline failed: %v", err)
	}
}

func TestStringers(t *testing.T) {
	if !strings.Contains(AlwaysHit.String(), "hit") {
		t.Error("AlwaysHit stringer")
	}
	if GlobalCounter.String() != "global-counter" {
		t.Error("GlobalCounter stringer")
	}
	if RecoveryBuffer.String() != "recovery-buffer" {
		t.Error("RecoveryBuffer stringer")
	}
	if IQRetention.String() != "iq-retention" {
		t.Error("IQRetention stringer")
	}
	if WordInterleave.String() != "quadword" || SetInterleave.String() != "set" {
		t.Error("Interleave stringer")
	}
}

func TestSchedulerImplDefaultAndStringer(t *testing.T) {
	// The zero value — and therefore every preset — selects the
	// event-driven scheduler; the scan implementation is opt-in.
	if Default().Scheduler != SchedEvent {
		t.Error("default scheduler is not event-driven")
	}
	for _, name := range Presets() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Scheduler != SchedEvent {
			t.Errorf("preset %s does not default to the event scheduler", name)
		}
	}
	if SchedEvent.String() != "event" || SchedScan.String() != "scan" {
		t.Error("SchedulerImpl stringer")
	}
}

func TestDelaySweepNames(t *testing.T) {
	for _, d := range []int{0, 2, 4, 6} {
		if got := SpecSchedCrit(d).Name; got != strings.ReplaceAll("SpecSched_D_Crit", "D", itoa(d)) {
			t.Fatalf("name = %q", got)
		}
	}
}

func itoa(d int) string { return string(rune('0' + d)) }

// TestDigestDiscriminatesContents: equal configs share a digest; changing
// any parameter (even with the name held fixed) changes it — the property
// sweep checkpoints rely on to reject stale cells.
func TestDigestDiscriminatesContents(t *testing.T) {
	a, err := Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	b := a
	if a.Digest() != b.Digest() {
		t.Fatal("identical configs must share a digest")
	}
	b.IQEntries *= 2
	if a.Digest() == b.Digest() {
		t.Fatal("changed config kept its digest")
	}
	c := a
	c.Scheduler = SchedScan
	if a.Digest() == c.Digest() {
		t.Fatal("scheduler implementation change kept its digest")
	}
}

// fnvDigest is the from-scratch digest definition checkpoint and worker
// frames store: FNV-64a over the %+v rendering.
func fnvDigest(c CoreConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
}

// TestMemoizedDigestMatchesScratch: the digests memoized in the preset
// table are byte-for-byte the from-scratch ones, for every registered
// preset and its _IQ256 variant, and a same-Name config with one changed
// field falls back to hashing its own contents.
func TestMemoizedDigestMatchesScratch(t *testing.T) {
	for _, base := range Presets() {
		for _, name := range []string{base, base + wideWindowSuffix} {
			c, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.Digest(), fnvDigest(c); got != want {
				t.Errorf("%s: Digest() = %016x, from scratch %016x", name, got, want)
			}
			changed := c
			changed.FilterEntries++
			if changed.Digest() == c.Digest() {
				t.Errorf("%s: changed config kept the preset's digest", name)
			}
			if got, want := changed.Digest(), fnvDigest(changed); got != want {
				t.Errorf("%s changed: Digest() = %016x, from scratch %016x", name, got, want)
			}
		}
	}
}

// TestPresetReturnsCopy: a caller mutating a returned config must not
// change what the next Preset call (or the memoized digest) sees.
func TestPresetReturnsCopy(t *testing.T) {
	for _, name := range []string{"SpecSched_4_Crit", "Baseline_0_IQ256"} {
		a, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		want := a
		a.IQEntries = 7
		a.L1D.Latency = 99
		a.DRAM.TRCD = 1
		b, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if b != want {
			t.Fatalf("%s: mutation of a returned config leaked into the next Preset", name)
		}
		if b.Digest() != fnvDigest(want) {
			t.Fatalf("%s: mutation leaked into the memoized digest", name)
		}
	}
}

// TestPresetDelaysIsACopy: the registered delays cannot be changed through
// the accessor, so the memoized table cannot disagree with them.
func TestPresetDelaysIsACopy(t *testing.T) {
	d := PresetDelays()
	d[0] = 3
	if got := PresetDelays(); got[0] != 0 {
		t.Fatalf("PresetDelays()[0] = %d after mutating a returned slice, want 0", got[0])
	}
	if _, err := Preset("SpecSched_3"); err == nil {
		t.Fatal("mutated delay became a registered preset")
	}
}

// TestPresetAllocs guards the resolve-once table: looking a preset up is
// a map read and a value copy.
func TestPresetAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Preset("SpecSched_4_Crit"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Preset makes %v allocations per call, want 0", n)
	}
}

// TestPresetConcurrent: the table is shared process-wide, so concurrent
// lookups and digests (one per daemon request) must be race-free.
func TestPresetConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for _, name := range Presets() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Preset(name)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Digest() != fnvDigest(c) {
				t.Errorf("%s: memoized digest differs from scratch", name)
			}
		}()
	}
	wg.Wait()
}
