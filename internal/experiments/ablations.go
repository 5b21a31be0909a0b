package experiments

import (
	"context"
	"fmt"
	"strings"

	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/results"
)

// collectConfigs runs arbitrary (possibly non-preset) configurations across
// the workload set through the runner's GridFunc, bypassing the
// preset-name cache (ablation configs are one-shot). The set is assembled
// in grid order, so its iteration order is deterministic too.
func (r *Runner) collectConfigs(ctx context.Context, cfgs []config.CoreConfig) (*stats.Set, error) {
	var cells []sim.Cell
	for _, cfg := range cfgs {
		for _, wl := range r.workloads {
			cells = r.appendCells(cells, cfg, wl)
		}
	}
	runs, err := r.runGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	set := stats.NewSet()
	for _, cfg := range cfgs {
		for _, wl := range r.workloads {
			if run := runs[cellKey{cfg.Name, wl}]; run != nil {
				set.Add(run)
			}
		}
	}
	return set, nil
}

// ablationVariants builds the design-choice ablations DESIGN.md lists, all
// derived from SpecSched_4-family presets.
func ablationVariants() []config.CoreConfig {
	var out []config.CoreConfig

	// Per-PC filter without the silence bit (§5.2 argues the bit wins).
	noSilence := config.SpecSchedFilter(4)
	noSilence.FilterNoSilence = true
	noSilence.Name = "SpecSched_4_Filter_NoSilence"
	out = append(out, noSilence)

	// No single line buffer: same-set pairs conflict too (§4.2 notes the
	// SLB already removes those conflicts).
	noSLB := config.SpecSched(4, true)
	noSLB.SingleLineBuffer = false
	noSLB.Name = "SpecSched_4_NoSLB"
	out = append(out, noSLB)

	// Set-interleaved banks instead of quadword-interleaved (§4.2:
	// "performs similarly" at equal bank count).
	setIl := config.SpecSched(4, true)
	setIl.L1Interleave = config.SetInterleave
	setIl.Name = "SpecSched_4_SetInterleave"
	out = append(out, setIl)

	// IQ retention replay (§3.1: "greatly decreased performance").
	ret := config.SpecSched(4, true)
	ret.Replay = config.IQRetention
	ret.Name = "SpecSched_4_IQRetention"
	out = append(out, ret)

	// Criticality table sized down 8x and up 4x.
	for _, entries := range []int{1024, 32768} {
		c := config.SpecSchedCrit(4)
		c.CritEntries = entries
		c.Name = fmt.Sprintf("SpecSched_4_Crit_%dK", entries/1024)
		out = append(out, c)
	}

	// Yoaz-style bank-predicted shifting: shift only predicted conflicts.
	out = append(out, config.SpecSchedBankPred(4))

	// Shifting under selective replay (replay-scheme agnosticism).
	shiftSel := config.SpecSchedShift(4)
	shiftSel.Replay = config.SelectiveReplay
	shiftSel.Name = "SpecSched_4_Shift_Selective"
	out = append(out, shiftSel)
	return out
}

// Ablations runs the design-choice ablations against their SpecSched_4
// reference points and reports gmean performance and replay counts.
func (r *Runner) Ablations(ctx context.Context) (string, error) {
	refSet, err := r.Collect(ctx, baselineName, "SpecSched_4", "SpecSched_4_Filter", "SpecSched_4_Crit")
	if err != nil {
		return "", err
	}
	variants := ablationVariants()
	varSet, err := r.collectConfigs(ctx, variants)
	if err != nil {
		return "", err
	}

	// Merge reference runs into the variant set so normalization works.
	for _, cfg := range []string{baselineName, "SpecSched_4", "SpecSched_4_Filter", "SpecSched_4_Crit"} {
		for _, wl := range r.workloads {
			if run := refSet.Get(cfg, wl); run != nil {
				varSet.Add(run)
			}
		}
	}

	tb := results.NewTable("Ablations (gmean vs Baseline_0; replay sums across suite)",
		"config", "gmean perf", "rpld miss", "rpld bank", "issued")
	rows := append([]string{"SpecSched_4", "SpecSched_4_Filter", "SpecSched_4_Crit"},
		namesOf(variants)...)
	for _, cn := range rows {
		tb.AddRowf(3, cn,
			varSet.GMeanSpeedup(cn, baselineName),
			varSet.SumField(cn, func(run *stats.Run) int64 { return run.ReplayedMiss }),
			varSet.SumField(cn, func(run *stats.Run) int64 { return run.ReplayedBank }),
			varSet.SumField(cn, func(run *stats.Run) int64 { return run.Issued }))
	}

	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nnotes:\n")
	b.WriteString("  NoSilence   — plain 2-bit counters; the silence bit should do at least as well (§5.2)\n")
	b.WriteString("  NoSLB       — same-set pairs now conflict; more bank replays than SpecSched_4 (§4.2)\n")
	b.WriteString("  SetInterleave — expected to perform similarly to quadword interleaving (§4.2)\n")
	b.WriteString("  IQRetention — µ-ops hold IQ entries until correct execution (§3.1)\n")
	b.WriteString("  Crit_1K/32K — criticality table size sensitivity\n")
	b.WriteString("  BankPred    — Yoaz-style bank predictor: shift only predicted conflicts (§2.2)\n")
	b.WriteString("  Shift_Selective — Schedule Shifting under Pentium-4-style selective replay\n")
	return b.String(), nil
}

func namesOf(cfgs []config.CoreConfig) []string {
	out := make([]string, len(cfgs))
	for i := range cfgs {
		out[i] = cfgs[i].Name
	}
	return out
}
