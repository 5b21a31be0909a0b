// Package presets names the machine configurations evaluated in Perais et
// al.'s ISCA 2015 paper. Configurations are addressed *by name* throughout
// the public specsched API — simulator options, sweep grids, and sweep
// checkpoints all key on the preset name — so this package deals in names:
// it lists the registered ones and builds well-formed names for the
// delay-parameterized families.
//
// The registered delays are 0, 2, 4 and 6 cycles of issue-to-execute delay
// (the paper's sweep); a name built for any other delay is rejected
// wherever it is used, with specsched.ErrInvalidConfig.
package presets

import "specsched/internal/config"

// Names returns every registered preset name in sorted order.
func Names() []string { return config.Presets() }

// Valid reports whether name resolves to a registered preset (including
// WideWindow-suffixed variants).
func Valid(name string) bool {
	_, err := config.Preset(name)
	return err == nil
}

// Delays returns the issue-to-execute delays the preset families are
// registered for: 0, 2, 4, 6.
func Delays() []int { return config.PresetDelays() }

// Baseline names Baseline_N: no speculative scheduling (load dependents
// wait for the data), dual-ported L1D. Baseline(0) is the normalization
// baseline of the paper's §5.
func Baseline(delay int) string { return config.Baseline(delay).Name }

// BaselineSingleLoad names Baseline_0 restricted to one load issue per
// cycle (the first bar of the paper's Fig. 3).
func BaselineSingleLoad() string { return config.BaselineSingleLoad().Name }

// SpecSched names SpecSched_N (banked L1) or SpecSched_N_dual: speculative
// scheduling with the Always Hit policy and recovery-buffer replay.
func SpecSched(delay int, banked bool) string { return config.SpecSched(delay, banked).Name }

// Shift names SpecSched_N_Shift: SpecSched plus Schedule Shifting (§5.1).
func Shift(delay int) string { return config.SpecSchedShift(delay).Name }

// BankPred names SpecSched_N_BankPred: Schedule Shifting applied only when
// a Yoaz-style bank predictor expects the issue group's loads to collide.
func BankPred(delay int) string { return config.SpecSchedBankPred(delay).Name }

// Ctr names SpecSched_N_Ctr: the Alpha 21264 4-bit global counter drives
// speculative wakeup (§5.2).
func Ctr(delay int) string { return config.SpecSchedCtr(delay).Name }

// Filter names SpecSched_N_Filter: per-PC hit/miss filter backed by the
// global counter (§5.2).
func Filter(delay int) string { return config.SpecSchedFilter(delay).Name }

// Combined names SpecSched_N_Combined: Schedule Shifting plus hit/miss
// filtering (§5.3).
func Combined(delay int) string { return config.SpecSchedCombined(delay).Name }

// Crit names SpecSched_N_Crit: Combined plus criticality-gated wakeup —
// the paper's best configuration (§5.3).
func Crit(delay int) string { return config.SpecSchedCrit(delay).Name }

// WideWindow names the widened-window study point of any preset: a
// 256-entry IQ with the ROB, LSQ, and PRF grown to keep it fillable. The
// variant is resolvable wherever a preset name is accepted but is not part
// of Names() — it measures the simulator, not the paper.
func WideWindow(name string) string { return name + "_IQ256" }
