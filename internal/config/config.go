// Package config defines the simulated core's configuration and the named
// presets evaluated in the paper (Baseline_N, SpecSched_N and its _Ctr,
// _Filter, _Shift, _Combined and _Crit variants).
//
// The default parameter values reproduce Table 1 of the paper: a 4 GHz,
// 8-wide fetch/decode/rename, 6-issue out-of-order core with a 60-entry
// unified IQ, 192-entry ROB, 72/48-entry LQ/SQ, a banked 32 KB L1D with a
// 4-cycle load-to-use latency, a 1 MB L2 with a stride prefetcher, and a
// single-channel DDR3-1600 memory.
package config

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// HitMissPolicy selects how the scheduler decides whether a load may wake
// its dependents speculatively (i.e. assuming an L1 hit).
type HitMissPolicy uint8

const (
	// AlwaysHit speculatively wakes dependents of every load (the
	// baseline speculative scheduling scheme, SpecSched_*).
	AlwaysHit HitMissPolicy = iota
	// GlobalCounter uses the Alpha 21264's 4-bit global counter: the MSB
	// decides whether loads may wake dependents speculatively
	// (SpecSched_*_Ctr).
	GlobalCounter
	// FilterAndCounter consults a per-PC 2-bit saturating counter with a
	// silence bit first; silenced entries defer to the global counter
	// (SpecSched_*_Filter).
	FilterAndCounter
	// NeverHit never wakes load dependents speculatively; they wait for
	// the hit/miss signal. This is what Baseline_* uses internally.
	NeverHit
)

func (p HitMissPolicy) String() string {
	switch p {
	case AlwaysHit:
		return "always-hit"
	case GlobalCounter:
		return "global-counter"
	case FilterAndCounter:
		return "filter+counter"
	case NeverHit:
		return "never-hit"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ReplayScheme selects how issued-but-unexecuted µ-ops are kept for replay.
type ReplayScheme uint8

const (
	// RecoveryBuffer releases IQ entries at issue (except memory µ-ops)
	// and keeps issue groups in a recovery buffer with replay priority, as
	// in §3.1 of the paper (after Morancho et al.).
	RecoveryBuffer ReplayScheme = iota
	// IQRetention keeps every µ-op in the scheduler until it executes
	// correctly. The paper reports this "greatly decreased performance
	// for a 60-entry scheduler"; provided as an ablation.
	IQRetention
	// SelectiveReplay cancels only the transitive dependents of the
	// mis-scheduled load, Pentium-4 style (§2.1.1): independent in-flight
	// µ-ops execute unharmed and no issue cycle is lost. The paper's
	// mechanisms are replay-scheme-agnostic; this scheme demonstrates it.
	SelectiveReplay
)

func (s ReplayScheme) String() string {
	switch s {
	case IQRetention:
		return "iq-retention"
	case SelectiveReplay:
		return "selective"
	default:
		return "recovery-buffer"
	}
}

// SchedulerImpl selects the software implementation of the wakeup/select
// logic in the simulated backend. Both implementations are cycle-exact
// models of the same machine — they must produce bit-identical statistics —
// and differ only in simulator cost: the scan implementation re-evaluates
// every issue-queue entry every cycle (O(window) per cycle), while the
// event-driven implementation maintains per-physical-register consumer
// lists, an age-ordered ready queue, and a timing wheel so scheduling work
// is proportional to events (completions, wakeups) rather than window size.
type SchedulerImpl uint8

const (
	// SchedEvent is the event-driven scheduler (consumer lists + ready
	// queue + timing wheel). The default.
	SchedEvent SchedulerImpl = iota
	// SchedScan is the per-cycle full-window scan: the permanent
	// differential-testing oracle the event scheduler is proven
	// bit-identical against, and the machine-speed anchor of the
	// benchjson regression gate.
	SchedScan
)

func (s SchedulerImpl) String() string {
	if s == SchedScan {
		return "scan"
	}
	return "event"
}

// Interleave selects the L1D bank-interleaving function.
type Interleave uint8

const (
	// WordInterleave spreads consecutive quadwords (8 B) across banks —
	// the Sandy Bridge layout the paper models.
	WordInterleave Interleave = iota
	// SetInterleave spreads consecutive cache sets across banks.
	SetInterleave
)

func (i Interleave) String() string {
	if i == SetInterleave {
		return "set"
	}
	return "quadword"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// Latency is the load-to-use latency (L1) or access latency (L2).
	Latency int
	MSHRs   int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// DRAMConfig describes the DDR3 timing model. All times are in CPU cycles
// unless suffixed otherwise.
type DRAMConfig struct {
	// CPUCyclesPerDRAMCycle converts DRAM bus cycles to CPU cycles
	// (4 GHz CPU over an 800 MHz DDR3-1600 bus = 5).
	CPUCyclesPerDRAMCycle int
	// TRCD, TCAS, TRP are in DRAM cycles (11-11-11 for DDR3-1600).
	TRCD, TCAS, TRP int
	// BurstDRAMCycles is the data-transfer occupancy of one 64 B line
	// over the 8 B DDR bus (4 bus cycles).
	BurstDRAMCycles int
	Ranks           int
	BanksPerRank    int
	RowBytes        int
	// TREFICycles is the refresh interval in CPU cycles (7.8 µs @ 4 GHz).
	TREFICycles int64
	// TRFCCycles is the refresh duration in CPU cycles.
	TRFCCycles int
	// ControllerOverhead is a fixed request overhead in CPU cycles added
	// to every access. The paper's 75-cycle minimum read latency equals
	// tCAS (11 DRAM cycles = 55 CPU) plus the burst (4 DRAM cycles = 20
	// CPU) exactly, and the 185-cycle maximum equals tRP+tRCD+tCAS+burst,
	// so the calibrated overhead is 0.
	ControllerOverhead int
}

// CoreConfig is the complete configuration of one simulated core.
type CoreConfig struct {
	// Name is the preset name, e.g. "SpecSched_4_Crit".
	Name string

	// IssueToExecuteDelay is the paper's N-1: a µ-op issued at cycle T
	// reaches Execute at T + IssueToExecuteDelay + 1.
	IssueToExecuteDelay int

	// FrontendDepth is the number of cycles between fetch and rename.
	// The presets keep FrontendDepth + backend depth constant so the
	// 20-cycle minimum branch misprediction penalty is preserved (§3.1).
	FrontendDepth int

	// Widths (in µ-ops per cycle).
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	RetireWidth int

	// Window structures.
	IQEntries  int
	ROBEntries int
	LQEntries  int
	SQEntries  int
	IntPRF     int
	FPPRF      int

	// Functional units.
	NumALU      int
	NumMulDiv   int
	NumFP       int
	NumFPMulDiv int
	// NumLdStPorts is the number of AGU/cache ports usable by loads and
	// stores combined; at most MaxStoresPerCycle of them may be stores
	// and at most MaxLoadsPerCycle loads.
	NumLdStPorts      int
	MaxLoadsPerCycle  int
	MaxStoresPerCycle int

	// Speculative scheduling.
	SpecSched        bool
	HitMiss          HitMissPolicy
	ScheduleShifting bool
	// BankPredictShift replaces unconditional Schedule Shifting with a
	// Yoaz-style bank predictor: the second load's dependents are
	// delayed only when the two loads of the issue group are predicted
	// to hit the same bank (§2.2, §4.2).
	BankPredictShift bool
	// BankPredEntries sizes the bank predictor table.
	BankPredEntries int
	CriticalityGate bool
	Replay          ReplayScheme

	// Scheduler selects the simulator-side wakeup/select implementation
	// (event-driven by default; the legacy scan kept for differential
	// testing). It must not affect simulated timing, only simulator speed.
	Scheduler SchedulerImpl

	// TimeSkip lets the event-driven scheduler advance simulated time
	// straight to the next scheduled event when the machine is provably
	// quiescent (no ready or replayable µ-op, no due timing-wheel entry,
	// no retirable ROB head, front end blocked) instead of stepping the
	// pipeline loop through every dead cycle. Per-cycle statistics are
	// bulk-accumulated over the skipped span, so results are bit-identical
	// to per-cycle stepping (asserted by the differential suite). Ignored
	// by SchedScan, which always steps cycle by cycle. On by default.
	TimeSkip bool

	// Hit/miss filter geometry (§5.2).
	FilterEntries       int
	FilterResetInterval int64
	// FilterNoSilence disables the silence bit (ablation; the paper
	// found the silence bit performs better).
	FilterNoSilence bool

	// Criticality predictor geometry (§5.3).
	CritEntries int
	CritCtrBits int

	// L1 data cache.
	L1D          CacheConfig
	BankedL1     bool
	L1Banks      int
	L1Interleave Interleave
	// SingleLineBuffer enables the Rivers-style two-read-port line buffer
	// that lets two same-set accesses proceed in one cycle (§4.2).
	SingleLineBuffer bool

	// L2 cache and prefetcher.
	L2             CacheConfig
	PrefetchDegree int
	PrefetchEnable bool

	DRAM DRAMConfig

	// Branch prediction.
	MinBranchPenalty int
	BTBEntries       int
	BTBWays          int
	// RASEntries is Table 1's return-stack depth. No return address
	// stack is modelled, so it only feeds the Table 1 text and the digest.
	RASEntries int
	// TAGE geometry: number of tagged components and total budget knob.
	TAGEComponents int
	TAGEBaseBits   int // log2 entries of the bimodal base predictor
	TAGETaggedBits int // log2 entries of each tagged component
	TAGEMaxHistory int
}

// Validate reports configuration errors a user could plausibly introduce
// when deriving a custom config from a preset.
func (c *CoreConfig) Validate() error {
	switch {
	case c.IssueToExecuteDelay < 0:
		return fmt.Errorf("config %q: negative issue-to-execute delay", c.Name)
	case c.IssueWidth <= 0 || c.FetchWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("config %q: non-positive pipeline width", c.Name)
	case c.IQEntries <= 0 || c.ROBEntries <= 0:
		return fmt.Errorf("config %q: non-positive window size", c.Name)
	case c.LQEntries <= 0 || c.SQEntries <= 0:
		return fmt.Errorf("config %q: non-positive LSQ size", c.Name)
	case c.IntPRF < 64 || c.FPPRF < 64:
		return fmt.Errorf("config %q: physical register file smaller than architectural state", c.Name)
	case c.MaxLoadsPerCycle <= 0 || c.MaxLoadsPerCycle > c.NumLdStPorts:
		return fmt.Errorf("config %q: invalid load issue capacity", c.Name)
	case c.L1D.SizeBytes%(c.L1D.Ways*c.L1D.LineBytes) != 0:
		return fmt.Errorf("config %q: L1D geometry not a whole number of sets", c.Name)
	case c.L2.SizeBytes%(c.L2.Ways*c.L2.LineBytes) != 0:
		return fmt.Errorf("config %q: L2 geometry not a whole number of sets", c.Name)
	case c.BankedL1 && (c.L1Banks <= 0 || c.L1Banks&(c.L1Banks-1) != 0):
		return fmt.Errorf("config %q: bank count must be a positive power of two", c.Name)
	case c.FrontendDepth < 1:
		return fmt.Errorf("config %q: frontend depth must be at least 1", c.Name)
	}
	return nil
}

// ExecuteStageOffset returns the number of cycles after issue at which a
// µ-op reaches the Execute stage (the paper's N = delay + 1).
func (c *CoreConfig) ExecuteStageOffset() int { return c.IssueToExecuteDelay + 1 }

// Digest returns a stable hash over every configuration field. Sweep
// checkpoints (internal/sim) store it next to each completed cell so a
// configuration whose name stayed the same while its parameters changed —
// common for hand-built ablation variants — never reuses stale results.
//
// Checkpoint records, cell-cache keys and worker frames carry the value,
// so its definition must not change. A config equal field for field to a
// registered preset (or its _IQ256 variant) returns the digest memoized in
// the preset table; any other config, including one that keeps a preset's
// Name but changes a field, is hashed from scratch.
func (c CoreConfig) Digest() uint64 {
	if e, ok := presetTable().byName[c.Name]; ok && e.cfg == c {
		return e.digest
	}
	return c.hash()
}

// hash is the from-scratch FNV-64a digest of the config's %+v rendering.
func (c CoreConfig) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
}

// baseFrontendDepth is Baseline_0's frontend depth (15 cycles, §3.1); the
// presets shorten the frontend as the backend deepens to keep the branch
// misprediction penalty constant at 20 cycles.
const baseFrontendDepth = 15

// Default returns the Table 1 machine with no speculative scheduling and a
// zero-cycle issue-to-execute delay (the paper's Baseline_0). The L1 is
// dual-ported (not banked), matching the normalization baseline of §5.
func Default() CoreConfig {
	return CoreConfig{
		Name:                "Baseline_0",
		IssueToExecuteDelay: 0,
		FrontendDepth:       baseFrontendDepth,
		FetchWidth:          8,
		RenameWidth:         8,
		IssueWidth:          6,
		RetireWidth:         8,
		IQEntries:           60,
		ROBEntries:          192,
		LQEntries:           72,
		SQEntries:           48,
		IntPRF:              256,
		FPPRF:               256,
		NumALU:              4,
		NumMulDiv:           1,
		NumFP:               2,
		NumFPMulDiv:         2,
		NumLdStPorts:        2,
		MaxLoadsPerCycle:    2,
		MaxStoresPerCycle:   1,

		SpecSched:        false,
		HitMiss:          NeverHit,
		ScheduleShifting: false,
		CriticalityGate:  false,
		Replay:           RecoveryBuffer,
		TimeSkip:         true,

		FilterEntries:       2048,
		FilterResetInterval: 10000,
		BankPredEntries:     2048,
		CritEntries:         8192,
		CritCtrBits:         4,

		L1D: CacheConfig{
			SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 4, MSHRs: 64,
		},
		BankedL1:         false,
		L1Banks:          8,
		L1Interleave:     WordInterleave,
		SingleLineBuffer: true,

		L2: CacheConfig{
			SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, Latency: 13, MSHRs: 64,
		},
		PrefetchDegree: 8,
		PrefetchEnable: true,

		DRAM: DRAMConfig{
			CPUCyclesPerDRAMCycle: 5,
			TRCD:                  11,
			TCAS:                  11,
			TRP:                   11,
			BurstDRAMCycles:       4,
			Ranks:                 2,
			BanksPerRank:          8,
			RowBytes:              8 << 10,
			TREFICycles:           31200, // 7.8 µs at 4 GHz
			TRFCCycles:            1040,  // 260 ns at 4 GHz
			ControllerOverhead:    0,
		},

		MinBranchPenalty: 20,
		BTBEntries:       8192,
		BTBWays:          2,
		RASEntries:       32,
		TAGEComponents:   12,
		TAGEBaseBits:     13,
		TAGETaggedBits:   10,
		TAGEMaxHistory:   640,
	}
}

// withDelay adjusts the issue-to-execute delay and rebalances the frontend
// so the minimum branch misprediction penalty stays constant (§3.1:
// Baseline_0 has a 15-cycle frontend and 4-cycle backend; Baseline_6 a
// 9-cycle frontend and 10-cycle backend).
func withDelay(c CoreConfig, delay int) CoreConfig {
	c.IssueToExecuteDelay = delay
	c.FrontendDepth = baseFrontendDepth - delay
	return c
}

// Baseline returns Baseline_N: no speculative scheduling (load dependents
// wait for the data), dual-ported L1D.
func Baseline(delay int) CoreConfig {
	c := withDelay(Default(), delay)
	c.Name = fmt.Sprintf("Baseline_%d", delay)
	return c
}

// BaselineSingleLoad returns Baseline_0 restricted to one load issue per
// cycle (the first bar of Fig. 3).
func BaselineSingleLoad() CoreConfig {
	c := Baseline(0)
	c.Name = "Baseline_0_1ld"
	c.MaxLoadsPerCycle = 1
	return c
}

// SpecSched returns SpecSched_N: speculative scheduling with the Always Hit
// policy and the recovery-buffer replay mechanism. banked selects a banked
// L1D (8 quadword-interleaved banks) instead of a dual-ported one.
func SpecSched(delay int, banked bool) CoreConfig {
	c := withDelay(Default(), delay)
	c.SpecSched = true
	c.HitMiss = AlwaysHit
	c.BankedL1 = banked
	c.Name = fmt.Sprintf("SpecSched_%d", delay)
	if !banked {
		c.Name += "_dual"
	}
	return c
}

// SpecSchedShift returns SpecSched_N plus Schedule Shifting (§5.1), banked L1.
func SpecSchedShift(delay int) CoreConfig {
	c := SpecSched(delay, true)
	c.ScheduleShifting = true
	c.Name = fmt.Sprintf("SpecSched_%d_Shift", delay)
	return c
}

// SpecSchedBankPred returns SpecSched_N_BankPred: like Schedule Shifting,
// but the one-cycle slack is applied only when a Yoaz-style bank predictor
// expects the issue group's loads to collide.
func SpecSchedBankPred(delay int) CoreConfig {
	c := SpecSched(delay, true)
	c.BankPredictShift = true
	c.Name = fmt.Sprintf("SpecSched_%d_BankPred", delay)
	return c
}

// SpecSchedCtr returns SpecSched_N_Ctr: the 4-bit global counter drives
// speculative wakeup (§5.2), banked L1.
func SpecSchedCtr(delay int) CoreConfig {
	c := SpecSched(delay, true)
	c.HitMiss = GlobalCounter
	c.Name = fmt.Sprintf("SpecSched_%d_Ctr", delay)
	return c
}

// SpecSchedFilter returns SpecSched_N_Filter: per-PC filter backed by the
// global counter (§5.2), banked L1.
func SpecSchedFilter(delay int) CoreConfig {
	c := SpecSched(delay, true)
	c.HitMiss = FilterAndCounter
	c.Name = fmt.Sprintf("SpecSched_%d_Filter", delay)
	return c
}

// SpecSchedCombined returns SpecSched_N_Combined: Schedule Shifting plus
// hit/miss filtering (§5.3), banked L1.
func SpecSchedCombined(delay int) CoreConfig {
	c := SpecSchedFilter(delay)
	c.ScheduleShifting = true
	c.Name = fmt.Sprintf("SpecSched_%d_Combined", delay)
	return c
}

// SpecSchedCrit returns SpecSched_N_Crit: Combined plus criticality gating —
// unless the filter predicts a sure hit, dependents of non-critical loads
// are not woken speculatively (§5.3), banked L1.
func SpecSchedCrit(delay int) CoreConfig {
	c := SpecSchedCombined(delay)
	c.CriticalityGate = true
	c.Name = fmt.Sprintf("SpecSched_%d_Crit", delay)
	return c
}

// WideWindow scales a configuration to the widened-window study point used
// by the benchmarks and differential tests: a 256-entry IQ with the ROB,
// LSQ, and PRF grown to keep it fillable. One definition so the
// BenchmarkIQ256 pair, cmd/benchjson's iq256 comparison, and the wide
// differential test all describe the same machine.
func WideWindow(c CoreConfig) CoreConfig {
	c.IQEntries = 256
	c.ROBEntries = 512
	c.LQEntries = 192
	c.SQEntries = 128
	c.IntPRF = 640
	c.FPPRF = 640
	c.Name += "_IQ256"
	return c
}

// presetDelays are the issue-to-execute delays the paper evaluates; every
// delay-parameterized preset family is registered for exactly these values.
// An array, so the memoized preset table cannot go stale under a caller.
var presetDelays = [...]int{0, 2, 4, 6}

// PresetDelays returns a copy of the issue-to-execute delays the preset
// families are registered for.
func PresetDelays() []int { return append([]int(nil), presetDelays[:]...) }

// wideWindowSuffix marks the widened-window (IQ=256) variant of any preset;
// Preset resolves it by applying WideWindow to the base preset.
const wideWindowSuffix = "_IQ256"

// allPresets enumerates every registered preset. It is the single source of
// truth behind Preset and Presets, so a preset family added here is
// automatically constructible by name and listed everywhere.
func allPresets() []CoreConfig {
	out := []CoreConfig{BaselineSingleLoad()}
	for _, d := range presetDelays {
		out = append(out,
			Baseline(d), SpecSched(d, true), SpecSched(d, false),
			SpecSchedShift(d), SpecSchedBankPred(d), SpecSchedCtr(d),
			SpecSchedFilter(d), SpecSchedCombined(d), SpecSchedCrit(d),
		)
	}
	return out
}

// presetEntry is one resolved preset and its digest.
type presetEntry struct {
	cfg    CoreConfig
	digest uint64
}

// presetIndex is the process-wide preset table: every registered preset and
// its _IQ256 variant by name, plus the sorted registered names.
type presetIndex struct {
	byName map[string]presetEntry
	names  []string
}

// presetTable builds the table on first use. Entries are values and
// CoreConfig holds no pointer, slice or map, so a config handed out by
// Preset cannot alias the table.
var presetTable = sync.OnceValue(func() presetIndex {
	ps := allPresets()
	t := presetIndex{byName: make(map[string]presetEntry, 2*len(ps)), names: make([]string, len(ps))}
	for i, c := range ps {
		t.names[i] = c.Name
		for _, v := range [...]CoreConfig{c, WideWindow(c)} {
			t.byName[v.Name] = presetEntry{cfg: v, digest: v.hash()}
		}
	}
	sort.Strings(t.names)
	return t
})

// Preset looks up a configuration by its paper name. Recognized names:
// Baseline_N, Baseline_0_1ld, SpecSched_N, SpecSched_N_dual,
// SpecSched_N_{Shift,BankPred,Ctr,Filter,Combined,Crit} for N in
// PresetDelays, plus any of those with an _IQ256 suffix selecting the
// WideWindow study point of the base preset.
func Preset(name string) (CoreConfig, error) {
	if e, ok := presetTable().byName[name]; ok {
		return e.cfg, nil
	}
	if base, ok := strings.CutSuffix(name, wideWindowSuffix); ok && base != "" {
		c, err := Preset(base)
		if err != nil {
			return CoreConfig{}, err
		}
		return WideWindow(c), nil
	}
	return CoreConfig{}, fmt.Errorf("config: unknown preset %q", name)
}

// Presets lists every registered preset name in sorted order — the
// canonical listing behind cmd/experiments -list and the public presets
// package. The _IQ256 variants are resolvable by Preset but deliberately
// not listed: they are simulator study points, not paper configurations.
func Presets() []string {
	return append([]string(nil), presetTable().names...)
}
