// Package experiments regenerates every table and figure of the paper's
// evaluation (§3-§5): Table 2's per-benchmark IPCs, Fig. 3's conservative
// scheduling slowdown, Fig. 4's speculative scheduling with dual-ported vs
// banked L1 plus the replayed-µ-op breakdown, Fig. 5's Schedule Shifting,
// Fig. 7's hit/miss filtering, Fig. 8's Combined/Crit results, and the
// §5.3 delay sweep. The same runners back cmd/experiments and the
// repository's benchmarks.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
)

// GridFunc executes a cell grid and returns one result per cell, in cell
// order. Per-cell failures travel in the results; the error reports only
// what stopped the grid as a whole (cancellation, a failed checkpoint
// flush).
type GridFunc func(ctx context.Context, cells []sim.Cell) ([]sim.Result, error)

// Runner renders the paper's reports over a (configuration × workload ×
// seed) grid that its GridFunc executes, caching pooled per-(config,
// workload) results so figures sharing configurations (every figure needs
// Baseline_0) run each simulation exactly once. The grid's execution
// knobs — windows, pool, checkpoint, retries — belong to the GridFunc.
type Runner struct {
	workloads []string
	seeds     int
	grid      GridFunc

	mu    sync.Mutex
	cache map[cellKey]*stats.Run
}

// NewRunner returns a runner over the given workload axis with seeds
// replicas per (config, workload) cell (at least one), executing its
// grids through grid.
func NewRunner(workloads []string, seeds int, grid GridFunc) *Runner {
	return &Runner{workloads: workloads, seeds: max(seeds, 1), grid: grid,
		cache: make(map[cellKey]*stats.Run)}
}

// cellKey names one pooled (config, workload) result.
type cellKey struct{ cfg, wl string }

// runGrid runs the (cfgs × workloads × seeds) grid and folds seed replicas
// into one pooled Run per (config, workload) pair. The merge walks results
// in grid order, so the returned map's contents are bit-identical however
// the GridFunc schedules the cells. Cell failures never abort the grid;
// they are aggregated into the returned error after every other cell has
// completed.
func (r *Runner) runGrid(ctx context.Context, cfgs []config.CoreConfig) (map[cellKey]*stats.Run, error) {
	cells := make([]sim.Cell, 0, len(cfgs)*len(r.workloads)*r.seeds)
	for _, cfg := range cfgs {
		for _, wl := range r.workloads {
			for s := 0; s < r.seeds; s++ {
				cells = append(cells, sim.Cell{Config: cfg, Workload: wl, SeedIdx: s})
			}
		}
	}
	results, err := r.grid(ctx, cells)
	out := make(map[cellKey]*stats.Run)
	var failures []string
	for _, res := range results {
		if res.Err != nil {
			failures = append(failures, res.Err.Error())
			continue
		}
		k := cellKey{res.Cell.Config.Name, res.Cell.Workload}
		if pooled, ok := out[k]; ok {
			pooled.Accumulate(res.Run)
		} else {
			clone := *res.Run // checkpoint- and cache-owned runs must not be mutated
			out[k] = &clone
		}
	}
	if err != nil {
		return out, err
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("experiments: %d/%d cells failed:\n  %s",
			len(failures), len(cells), strings.Join(failures, "\n  "))
	}
	return out, nil
}

// Collect ensures every (config, workload) pair has run and returns the
// populated set. Missing pairs execute through the runner's GridFunc; when
// nothing is missing, Collect only looks the runs up.
func (r *Runner) Collect(ctx context.Context, cfgNames ...string) (*stats.Set, error) {
	set, missing, err := r.cached(cfgNames)
	if err != nil || len(missing) == 0 {
		return set, err
	}
	runs, err := r.runGrid(ctx, missing)
	r.mu.Lock()
	for k, run := range runs {
		r.cache[k] = run
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	set, _, err = r.cached(cfgNames)
	return set, err
}

// cached assembles the cached runs of cfgNames into a set, in (config,
// workload) order, and resolves the presets that still miss a workload's
// run. A failed cell leaves no entry, so the next Collect retries it
// rather than serving an incomplete set.
func (r *Runner) cached(cfgNames []string) (*stats.Set, []config.CoreConfig, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := stats.NewSetSize(len(cfgNames), len(r.workloads))
	var missing []config.CoreConfig
	for _, cn := range cfgNames {
		need := false
		for _, wl := range r.workloads {
			if run := r.cache[cellKey{cn, wl}]; run != nil {
				set.Add(run)
			} else {
				need = true
			}
		}
		if need {
			cfg, err := config.Preset(cn)
			if err != nil {
				return nil, nil, err
			}
			missing = append(missing, cfg)
		}
	}
	return set, missing, nil
}

// Snapshot returns a copy of every pooled run cached so far, sorted by
// (config, workload) — the payload of cmd/experiments -json.
func (r *Runner) Snapshot() []stats.Run {
	r.mu.Lock()
	var out []stats.Run
	for _, run := range r.cache {
		out = append(out, *run)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b stats.Run) int {
		return cmp.Or(strings.Compare(a.Config, b.Config), strings.Compare(a.Workload, b.Workload))
	})
	return out
}

// baselineName is the normalization baseline used throughout §5: the
// zero-delay machine with a dual-ported L1D.
const baselineName = "Baseline_0"

// perfTable renders per-workload IPC normalized to Baseline_0 for the given
// configs, with a gmean row — the format of Figs. 3, 4a, 5a, 7a, 8a.
func perfTable(title string, set *stats.Set, cfgs []string) string {
	header := append([]string{"workload"}, cfgs...)
	tb := stats.NewTable(title, header...)
	bi, cis := set.ConfigIndex(baselineName), configIndices(set, cfgs)
	cells := make([]interface{}, 0, len(header))
	for wi, wl := range set.Workloads() {
		base := set.At(bi, wi)
		if base == nil {
			continue
		}
		cells = append(cells[:0], wl)
		for _, ci := range cis {
			if run := set.At(ci, wi); run != nil {
				cells = append(cells, stats.Speedup(run, base))
			} else {
				cells = append(cells, "-")
			}
		}
		tb.AddRowf(3, cells...)
	}
	cells = append(cells[:0], "gmean")
	for _, cn := range cfgs {
		cells = append(cells, set.GMeanSpeedup(cn, baselineName))
	}
	tb.AddRowf(3, cells...)
	return tb.String()
}

// configIndices resolves cfgs to their dense indices in set.
func configIndices(set *stats.Set, cfgs []string) []int {
	cis := make([]int, len(cfgs))
	for i, cn := range cfgs {
		cis[i] = set.ConfigIndex(cn)
	}
	return cis
}

// replayCounts is one config's cell group in a replayTable row: its unique
// and replayed µ-ops and the Baseline_0 issued µ-ops they normalize by.
type replayCounts struct{ uniq, rpldM, rpldB, baseIssued int64 }

// replayTable renders the issued-µ-op breakdown normalized to Baseline_0's
// issued count — the format of Figs. 4b, 5b, 7b, 8b: Unique, RpldMiss,
// RpldBank per configuration.
func replayTable(title string, set *stats.Set, cfgs []string) string {
	header := []string{"workload"}
	for _, cn := range cfgs {
		short := strings.TrimPrefix(cn, "SpecSched_")
		header = append(header, short+":uniq", short+":rpldM", short+":rpldB")
	}
	tb := stats.NewTable(title, header...)
	cells := make([]interface{}, 0, len(header))
	addRow := func(label string, row []replayCounts) {
		cells = append(cells[:0], label)
		for _, c := range row {
			if c.baseIssued == 0 {
				cells = append(cells, "-", "-", "-")
				continue
			}
			base := float64(c.baseIssued)
			cells = append(cells, float64(c.uniq)/base, float64(c.rpldM)/base, float64(c.rpldB)/base)
		}
		tb.AddRowf(3, cells...)
	}
	bi, cis := set.ConfigIndex(baselineName), configIndices(set, cfgs)
	row, total := make([]replayCounts, len(cfgs)), make([]replayCounts, len(cfgs))
	for wi, wl := range set.Workloads() {
		base := set.At(bi, wi)
		if base == nil {
			continue
		}
		for i, ci := range cis {
			row[i] = replayCounts{}
			if run := set.At(ci, wi); run != nil {
				row[i] = replayCounts{run.Unique, run.ReplayedMiss, run.ReplayedBank, base.Issued}
				total[i].uniq += run.Unique
				total[i].rpldM += run.ReplayedMiss
				total[i].rpldB += run.ReplayedBank
				total[i].baseIssued += base.Issued
			}
		}
		addRow(wl, row)
	}
	addRow("total", total)
	return tb.String()
}

// Table1 renders the simulator configuration overview (no simulation).
func Table1() string {
	cfg := config.Default()
	tb := stats.NewTable("Table 1: simulator configuration", "component", "value")
	rows := [][2]string{
		{"frontend", fmt.Sprintf("%d-wide fetch/decode/rename, %d-cycle frontend (Baseline_0)", cfg.FetchWidth, cfg.FrontendDepth)},
		{"branch pred", fmt.Sprintf("TAGE 1+%d components, 2-way %dK-entry BTB, %d-entry RAS, %d-cycle min. penalty", cfg.TAGEComponents, cfg.BTBEntries/1024, cfg.RASEntries, cfg.MinBranchPenalty)},
		{"window", fmt.Sprintf("%d-entry ROB, %d-entry unified IQ, %d/%d-entry LQ/SQ", cfg.ROBEntries, cfg.IQEntries, cfg.LQEntries, cfg.SQEntries)},
		{"registers", fmt.Sprintf("%d INT / %d FP physical registers", cfg.IntPRF, cfg.FPPRF)},
		{"issue", fmt.Sprintf("%d-issue; %dxALU(1c) %dxMulDiv(3c/25c*) %dxFP(3c) %dxFPMulDiv(5c/10c*) %dxLd/St (max %d loads, %d store)", cfg.IssueWidth, cfg.NumALU, cfg.NumMulDiv, cfg.NumFP, cfg.NumFPMulDiv, cfg.NumLdStPorts, cfg.MaxLoadsPerCycle, cfg.MaxStoresPerCycle)},
		{"memdep", "1K-SSID/LFST Store Sets"},
		{"L1D", fmt.Sprintf("%dKB %d-way, %d-cycle load-to-use, %d MSHRs, %d banks (%s-interleaved), SLB", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency, cfg.L1D.MSHRs, cfg.L1Banks, cfg.L1Interleave)},
		{"L2", fmt.Sprintf("%dMB %d-way, %d cycles, %d MSHRs, stride prefetcher degree %d", cfg.L2.SizeBytes>>20, cfg.L2.Ways, cfg.L2.Latency, cfg.L2.MSHRs, cfg.PrefetchDegree)},
		{"DRAM", fmt.Sprintf("DDR3-1600 (%d-%d-%d), %d ranks x %d banks, %dKB rows; min/max read %d/%d cycles", cfg.DRAM.TRCD, cfg.DRAM.TCAS, cfg.DRAM.TRP, cfg.DRAM.Ranks, cfg.DRAM.BanksPerRank, cfg.DRAM.RowBytes>>10, 75, 185)},
	}
	for _, r := range rows {
		tb.AddRow(r[0], r[1])
	}
	return tb.String() + "*divides unpipelined\n"
}

// Table2 runs Baseline_0 on the full suite and reports measured IPC next to
// the paper's Table 2 value.
func (r *Runner) Table2(ctx context.Context) (string, error) {
	set, err := r.Collect(ctx, baselineName)
	if err != nil {
		return "", err
	}
	tb := stats.NewTable("Table 2: benchmarks (Baseline_0)",
		"workload", "IPC", "paper IPC", "L1 miss", "MPKI")
	bi := set.ConfigIndex(baselineName)
	for wi, wl := range set.Workloads() {
		run := set.At(bi, wi)
		tb.AddRowf(3, wl, run.IPC(), trace.PaperIPC(wl), run.L1MissRate(), run.MPKI())
	}
	return tb.String(), nil
}

// Fig3 reproduces the conservative-scheduling slowdown: Baseline_0 with a
// single load port, and Baseline_{2,4,6}, normalized to Baseline_0.
func (r *Runner) Fig3(ctx context.Context) (string, error) {
	cfgs := []string{"Baseline_0_1ld", "Baseline_2", "Baseline_4", "Baseline_6"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	return perfTable("Fig 3: slowdown without speculative scheduling (vs Baseline_0)",
		set, cfgs), nil
}

// Fig4 reproduces speculative scheduling across delays with dual-ported
// vs banked L1 (a) and the replayed-µ-op breakdown for the banked case (b).
func (r *Runner) Fig4(ctx context.Context) (string, error) {
	perfCfgs := []string{
		"SpecSched_2_dual", "SpecSched_2",
		"SpecSched_4_dual", "SpecSched_4",
		"SpecSched_6_dual", "SpecSched_6",
	}
	set, err := r.Collect(ctx, append(perfCfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	a := perfTable("Fig 4a: SpecSched performance, dual-ported vs banked L1 (vs Baseline_0)",
		set, perfCfgs)
	b := replayTable("Fig 4b: issued µ-ops breakdown, banked L1 (normalized to Baseline_0 issued)",
		set, []string{"SpecSched_2", "SpecSched_4", "SpecSched_6"})
	return a + "\n" + b, nil
}

// Fig5 reproduces Schedule Shifting on SpecSched_4 with a banked L1.
func (r *Runner) Fig5(ctx context.Context) (string, error) {
	cfgs := []string{"SpecSched_4", "SpecSched_4_Shift"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	a := perfTable("Fig 5a: Schedule Shifting (vs Baseline_0)", set, cfgs)
	b := replayTable("Fig 5b: replayed µ-ops with Schedule Shifting", set, cfgs)
	red := set.ReductionVs("SpecSched_4_Shift", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedBank })
	sp := set.GMeanSpeedup("SpecSched_4_Shift", "SpecSched_4")
	s := fmt.Sprintf("\nbank-conflict replays removed by Shifting: %.1f%% (paper: 74.8%%)\n"+
		"speedup over SpecSched_4: %+.1f%% (paper: +2.9%%)\n", 100*red, 100*(sp-1))
	return a + "\n" + b + s, nil
}

// Fig7 reproduces hit/miss filtering: the global counter alone and the
// per-PC filter backed by the counter.
func (r *Runner) Fig7(ctx context.Context) (string, error) {
	cfgs := []string{"SpecSched_4", "SpecSched_4_Ctr", "SpecSched_4_Filter"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	a := perfTable("Fig 7a: hit/miss filtering (vs Baseline_0)", set, cfgs)
	b := replayTable("Fig 7b: replayed µ-ops with hit/miss filtering", set, cfgs)
	missRed := func(cfg string) float64 {
		return set.ReductionVs(cfg, "SpecSched_4",
			func(run *stats.Run) int64 { return run.ReplayedMiss })
	}
	totRed := func(cfg string) float64 {
		return set.ReductionVs(cfg, "SpecSched_4",
			func(run *stats.Run) int64 { return run.Replayed() })
	}
	s := fmt.Sprintf("\nmiss replays removed: Ctr %.1f%% (paper: 59.3%%), Filter %.1f%% (paper: 65.0%%)\n"+
		"total replays removed: Ctr %.1f%% (paper: 44.7%%), Filter %.1f%% (paper: 45.4%%)\n",
		100*missRed("SpecSched_4_Ctr"), 100*missRed("SpecSched_4_Filter"),
		100*totRed("SpecSched_4_Ctr"), 100*totRed("SpecSched_4_Filter"))
	return a + "\n" + b + s, nil
}

// Fig8 reproduces the combined mechanisms and criticality gating.
func (r *Runner) Fig8(ctx context.Context) (string, error) {
	cfgs := []string{"SpecSched_4", "SpecSched_4_Combined", "SpecSched_4_Crit"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	a := perfTable("Fig 8a: Combined and Crit (vs Baseline_0)", set, cfgs)
	b := replayTable("Fig 8b: replayed µ-ops, Combined and Crit", set, cfgs)
	totRed := func(cfg string) float64 {
		return set.ReductionVs(cfg, "SpecSched_4",
			func(run *stats.Run) int64 { return run.Replayed() })
	}
	sp := func(cfg string) float64 { return set.GMeanSpeedup(cfg, "SpecSched_4") }
	issRed := func(cfg string) float64 {
		return set.ReductionVs(cfg, "SpecSched_4",
			func(run *stats.Run) int64 { return run.Issued })
	}
	s := fmt.Sprintf("\nreplays removed: Combined %.1f%% (paper: 68.2%%), Crit %.1f%% (paper: 90.6%%)\n"+
		"speedup over SpecSched_4: Combined %+.1f%% (paper: +3.7%%), Crit %+.1f%% (paper: +3.4%%)\n"+
		"issued µ-ops reduced: Combined %.1f%% (paper: 11.6%%), Crit %.1f%% (paper: 13.4%%)\n",
		100*totRed("SpecSched_4_Combined"), 100*totRed("SpecSched_4_Crit"),
		100*(sp("SpecSched_4_Combined")-1), 100*(sp("SpecSched_4_Crit")-1),
		100*issRed("SpecSched_4_Combined"), 100*issRed("SpecSched_4_Crit"))
	return a + "\n" + b + s, nil
}

// DelaySweep reports the §5.3 text numbers: SpecSched_{2,6}_Crit replay and
// issue reductions relative to SpecSched_{2,6}.
func (r *Runner) DelaySweep(ctx context.Context) (string, error) {
	cfgs := []string{"SpecSched_2", "SpecSched_2_Crit", "SpecSched_6", "SpecSched_6_Crit"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "== §5.3 delay sweep: SpecSched_N_Crit vs SpecSched_N ==")
	for _, d := range []string{"2", "6"} {
		base, crit := "SpecSched_"+d, "SpecSched_"+d+"_Crit"
		replRed := set.ReductionVs(crit, base, func(run *stats.Run) int64 { return run.Replayed() })
		issRed := set.ReductionVs(crit, base, func(run *stats.Run) int64 { return run.Issued })
		sp := set.GMeanSpeedup(crit, base)
		paperIss, paperSp := "11.2%", "+2.3%"
		if d == "6" {
			paperIss, paperSp = "18.7%", "+4.8%"
		}
		fmt.Fprintf(&b, "delay %s: replays -%.1f%% (paper: ~90%%), issued -%.1f%% (paper: %s), speedup %+.1f%% (paper: %s)\n",
			d, 100*replRed, 100*issRed, paperIss, 100*(sp-1), paperSp)
	}
	return b.String(), nil
}

// Summary reports the paper's headline numbers for SpecSched_4_Crit.
func (r *Runner) Summary(ctx context.Context) (string, error) {
	cfgs := []string{"SpecSched_4", "SpecSched_4_Shift", "SpecSched_4_Filter",
		"SpecSched_4_Combined", "SpecSched_4_Crit"}
	set, err := r.Collect(ctx, append(cfgs, baselineName)...)
	if err != nil {
		return "", err
	}
	bankRed := set.ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedBank })
	missRed := set.ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedMiss })
	totRed := set.ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.Replayed() })
	issRed := set.ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.Issued })
	sp := set.GMeanSpeedup("SpecSched_4_Crit", "SpecSched_4")
	var b strings.Builder
	fmt.Fprintln(&b, "== Headline results (SpecSched_4_Crit vs SpecSched_4, 4-cycle issue-to-execute) ==")
	fmt.Fprintf(&b, "bank-conflict replays avoided: %.1f%%  (paper: 78.0%%)\n", 100*bankRed)
	fmt.Fprintf(&b, "L1-miss replays avoided:       %.1f%%  (paper: 96.5%%)\n", 100*missRed)
	fmt.Fprintf(&b, "all replays avoided:           %.1f%%  (paper: 90.6%%)\n", 100*totRed)
	fmt.Fprintf(&b, "issued µ-ops reduced:          %.1f%%  (paper: 13.4%%)\n", 100*issRed)
	fmt.Fprintf(&b, "performance:                   %+.1f%% (paper: +3.4%%)\n", 100*(sp-1))
	return b.String(), nil
}

// Names lists the experiment identifiers understood by Run.
func Names() []string {
	return []string{"table1", "table2", "fig3", "fig4", "fig5", "fig7", "fig8",
		"delays", "summary", "ablations", "replayschemes"}
}

// Run executes one named experiment and returns its report.
func (r *Runner) Run(ctx context.Context, name string) (string, error) {
	switch name {
	case "table1":
		return Table1(), nil
	case "table2":
		return r.Table2(ctx)
	case "fig3":
		return r.Fig3(ctx)
	case "fig4":
		return r.Fig4(ctx)
	case "fig5":
		return r.Fig5(ctx)
	case "fig7":
		return r.Fig7(ctx)
	case "fig8":
		return r.Fig8(ctx)
	case "delays":
		return r.DelaySweep(ctx)
	case "summary":
		return r.Summary(ctx)
	case "ablations":
		return r.Ablations(ctx)
	case "replayschemes":
		return r.ReplaySchemes(ctx)
	default:
		known := Names()
		sort.Strings(known)
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
	}
}
