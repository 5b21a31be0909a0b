package experiments

import (
	"context"
	"fmt"
	"strings"

	"specsched/internal/config"
	"specsched/internal/stats"
	"specsched/results"
)

// ReplaySchemes compares the Alpha-21264-style recovery-buffer replay the
// paper models against Pentium-4-style selective replay (§2.1), for both
// the baseline speculative scheduler and SpecSched_4_Crit. The paper's
// mechanisms claim to be replay-scheme-agnostic: the replay *reductions*
// from Shifting + filtering + criticality should hold under either scheme.
func (r *Runner) ReplaySchemes(ctx context.Context) (string, error) {
	mk := func(base config.CoreConfig, scheme config.ReplayScheme, name string) config.CoreConfig {
		base.Replay = scheme
		base.Name = name
		return base
	}
	cfgs := []config.CoreConfig{
		mk(config.SpecSched(4, true), config.RecoveryBuffer, "SS4_alpha"),
		mk(config.SpecSched(4, true), config.SelectiveReplay, "SS4_selective"),
		mk(config.SpecSchedCrit(4), config.RecoveryBuffer, "Crit_alpha"),
		mk(config.SpecSchedCrit(4), config.SelectiveReplay, "Crit_selective"),
	}
	set, err := r.collectConfigs(ctx, cfgs)
	if err != nil {
		return "", err
	}
	refSet, err := r.Collect(ctx, baselineName)
	if err != nil {
		return "", err
	}
	for _, wl := range r.workloads {
		if run := refSet.Get(baselineName, wl); run != nil {
			set.Add(run)
		}
	}

	tb := results.NewTable("Replay schemes: Alpha-style squash vs Pentium-4-style selective",
		"config", "gmean perf", "replayed µ-ops", "issued")
	for _, cn := range []string{"SS4_alpha", "SS4_selective", "Crit_alpha", "Crit_selective"} {
		tb.AddRowf(3, cn,
			set.GMeanSpeedup(cn, baselineName),
			set.SumField(cn, func(run *stats.Run) int64 { return run.Replayed() }),
			set.SumField(cn, func(run *stats.Run) int64 { return run.Issued }))
	}

	redUnder := func(scheme string) float64 {
		return set.ReductionVs("Crit_"+scheme, "SS4_"+scheme,
			func(run *stats.Run) int64 { return run.Replayed() })
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nCrit's replay reduction under the Alpha scheme:     %.1f%%\n", 100*redUnder("alpha"))
	fmt.Fprintf(&b, "Crit's replay reduction under selective replay:     %.1f%%\n", 100*redUnder("selective"))
	b.WriteString("(similar reductions = the mechanisms are replay-scheme-agnostic, §1)\n")
	return b.String(), nil
}
