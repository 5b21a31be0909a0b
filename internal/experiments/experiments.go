// Package experiments regenerates every table and figure of the paper's
// evaluation (§3-§5): Table 2's per-benchmark IPCs, Fig. 3's conservative
// scheduling slowdown, Fig. 4's speculative scheduling with dual-ported vs
// banked L1 plus the replayed-µ-op breakdown, Fig. 5's Schedule Shifting,
// Fig. 7's hit/miss filtering, Fig. 8's Combined/Crit results, and the
// §5.3 delay sweep, plus the design-choice ablations and the replay-scheme
// comparison. The same runners back cmd/experiments and the repository's
// benchmarks.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"specsched/internal/config"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/results"
)

// GridFunc executes a cell grid and returns one result per cell, in cell
// order. Per-cell failures travel in the results; the error reports only
// what stopped the grid as a whole (cancellation, a failed checkpoint
// flush).
type GridFunc func(ctx context.Context, cells []sim.Cell) ([]sim.Result, error)

// Runner renders the paper's reports over a (configuration × workload ×
// seed) grid that its GridFunc executes, caching pooled per-(config,
// workload) results so figures sharing configurations (every figure needs
// Baseline_0) run each simulation exactly once, and each report's text
// once it has rendered. The grid's execution knobs — windows, pool,
// checkpoint, retries — belong to the GridFunc.
type Runner struct {
	workloads []string
	seeds     int
	grid      GridFunc

	mu      sync.Mutex
	cache   map[cellKey]*stats.Run
	reports map[string]string // report name → text, only for renders that succeeded
}

// NewRunner returns a runner over the given workload axis with seeds
// replicas per (config, workload) cell (at least one), executing its
// grids through grid.
func NewRunner(workloads []string, seeds int, grid GridFunc) *Runner {
	return &Runner{workloads: workloads, seeds: max(seeds, 1), grid: grid,
		cache: make(map[cellKey]*stats.Run), reports: make(map[string]string)}
}

// cellKey names one pooled (config, workload) result.
type cellKey struct{ cfg, wl string }

// runGrid runs the cells (every seed replica of some (config, workload)
// pairs) and folds seed replicas into one pooled Run per pair. The merge
// walks results in grid order, so the returned map's contents are
// bit-identical however the GridFunc schedules the cells. Cell failures
// never abort the grid; they are aggregated into the returned error after
// every other cell has completed.
func (r *Runner) runGrid(ctx context.Context, cells []sim.Cell) (map[cellKey]*stats.Run, error) {
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
// populated set. Only the missing pairs execute, through the runner's
// GridFunc; when nothing is missing, Collect only looks the runs up.
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
// workload) order, and lists the cells, seed replicas included, of the
// pairs that still miss a run, in grid order. A failed cell leaves no
// entry, so the next Collect retries it rather than serving an incomplete
// set.
func (r *Runner) cached(cfgNames []string) (*stats.Set, []sim.Cell, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := stats.NewSet()
	var missing []sim.Cell
	for _, cn := range cfgNames {
		for _, wl := range r.workloads {
			if run := r.cache[cellKey{cn, wl}]; run != nil {
				set.Add(run)
				continue
			}
			cfg, err := configFor(cn)
			if err != nil {
				return nil, nil, err
			}
			for s := 0; s < r.seeds; s++ {
				missing = append(missing, sim.Cell{Config: cfg, Workload: wl, SeedIdx: s})
			}
		}
	}
	return set, missing, nil
}

// variants declares every report row that is not a preset: the
// single-choice ablations DESIGN.md lists and the selective-replay
// counterparts of the replay-scheme rows. Each is its base preset with one
// field changed and a suffix appended to its name.
var variants = func() map[string]config.CoreConfig {
	out := make(map[string]config.CoreConfig)
	add := func(base config.CoreConfig, suffix string, change func(*config.CoreConfig)) {
		change(&base)
		base.Name += suffix
		out[base.Name] = base
	}
	selective := func(c *config.CoreConfig) { c.Replay = config.SelectiveReplay }
	// Per-PC filter without the silence bit (§5.2 argues the bit wins).
	add(config.SpecSchedFilter(4), "_NoSilence", func(c *config.CoreConfig) { c.FilterNoSilence = true })
	// No single line buffer: same-set pairs conflict too (§4.2 notes the
	// SLB already removes those conflicts).
	add(config.SpecSched(4, true), "_NoSLB", func(c *config.CoreConfig) { c.SingleLineBuffer = false })
	// Set-interleaved banks instead of quadword-interleaved (§4.2:
	// "performs similarly" at equal bank count).
	add(config.SpecSched(4, true), "_SetInterleave", func(c *config.CoreConfig) { c.L1Interleave = config.SetInterleave })
	// IQ retention replay (§3.1: "greatly decreased performance").
	add(config.SpecSched(4, true), "_IQRetention", func(c *config.CoreConfig) { c.Replay = config.IQRetention })
	// Criticality table sized down 8x and up 4x.
	add(config.SpecSchedCrit(4), "_1K", func(c *config.CoreConfig) { c.CritEntries = 1024 })
	add(config.SpecSchedCrit(4), "_32K", func(c *config.CoreConfig) { c.CritEntries = 32768 })
	// Pentium-4-style selective replay instead of the Alpha-style squash
	// (§2.1.1): the replay-scheme-agnosticism rows.
	add(config.SpecSched(4, true), "_Selective", selective)
	add(config.SpecSchedShift(4), "_Selective", selective)
	add(config.SpecSchedCrit(4), "_Selective", selective)
	return out
}()

// configFor resolves a report row by name: a declared variant, else a
// preset.
func configFor(name string) (config.CoreConfig, error) {
	if cfg, ok := variants[name]; ok {
		return cfg, nil
	}
	return config.Preset(name)
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
	tb := results.NewTable(title, header...)
	cells := make([]interface{}, 0, len(header))
	for _, wl := range set.Workloads() {
		base := set.Get(baselineName, wl)
		if base == nil {
			continue
		}
		cells = append(cells[:0], wl)
		for _, cn := range cfgs {
			if run := set.Get(cn, wl); run != nil {
				cells = append(cells, results.Speedup(run, base))
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
	tb := results.NewTable(title, header...)
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
	row, total := make([]replayCounts, len(cfgs)), make([]replayCounts, len(cfgs))
	for _, wl := range set.Workloads() {
		base := set.Get(baselineName, wl)
		if base == nil {
			continue
		}
		for i, cn := range cfgs {
			row[i] = replayCounts{}
			if run := set.Get(cn, wl); run != nil {
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

// column is one column of a suite-totals table: a header and the metric
// whose suite total fills it.
type column struct {
	header string
	metric *metric
}

// totalsTable renders one row per config of each column's suite total —
// the format of the ablations and replay-scheme reports.
func totalsTable(title string, set *stats.Set, cfgs []string, cols []column) string {
	header := []string{"config"}
	for _, c := range cols {
		header = append(header, c.header)
	}
	tb := results.NewTable(title, header...)
	cells := make([]interface{}, 0, len(header))
	for _, cn := range cfgs {
		cells = append(cells[:0], cn)
		for _, c := range cols {
			cells = append(cells, c.metric.total(set, cn))
		}
		tb.AddRowf(3, cells...)
	}
	return tb.String()
}

// Table1 renders the simulator configuration overview (no simulation).
func Table1() string {
	cfg := config.Default()
	tb := results.NewTable("Table 1: simulator configuration", "component", "value")
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
	tb := results.NewTable("Table 2: benchmarks (Baseline_0)",
		"workload", "IPC", "paper IPC", "L1 miss", "MPKI")
	for _, wl := range set.Workloads() {
		run := set.Get(baselineName, wl)
		tb.AddRowf(3, wl, run.IPC(), trace.PaperIPC(wl), run.L1MissRate(), run.MPKI())
	}
	return tb.String(), nil
}

// metric is what a claim measures of its config against its line's base:
// the pooled reduction of counter or, without one, the gmean speedup - 1.
type metric struct{ counter func(*stats.Run) int64 }

var (
	bankReplaysCut = &metric{func(run *stats.Run) int64 { return run.ReplayedBank }}
	missReplaysCut = &metric{func(run *stats.Run) int64 { return run.ReplayedMiss }}
	replaysCut     = &metric{(*stats.Run).Replayed}
	issuedCut      = &metric{func(run *stats.Run) int64 { return run.Issued }}
	speedup        = &metric{}
)

func (m *metric) of(set *stats.Set, cfg, base string) float64 {
	if m.counter == nil {
		return set.GMeanSpeedup(cfg, base) - 1
	}
	return set.ReductionVs(cfg, base, m.counter)
}

// total is m's suite total for cfg: the gmean speedup over Baseline_0 or
// the counter's int64 sum.
func (m *metric) total(set *stats.Set, cfg string) interface{} {
	if m.counter == nil {
		return set.GMeanSpeedup(cfg, baselineName)
	}
	return set.SumField(cfg, m.counter)
}

// claim is one measured number printed beside the paper's value; item
// names it within its line and may be empty.
type claim struct {
	item, config string
	metric       *metric
	paper        string
}

// claimLine is one report line of claims, all measured against base.
type claimLine struct {
	label, base string
	claims      []claim
}

// figure declares one report: an optional perfTable and replayTable (its
// configs default to perf's), an optional totalsTable of cols, a heading
// for a claim-only report, claim lines, and a static note printed last;
// aligned pads labels to one column. init sets width and configs (table
// configs ∪ claim configs ∪ Baseline_0, in first-use order).
type figure struct {
	perfTitle, replayTitle, totalsTitle, title, note string
	perf, replay, totals, configs                    []string
	cols                                             []column
	lines                                            []claimLine
	aligned                                          bool
	width                                            int
}

// The paper values of SpecSched_4_Crit that both fig8 and the summary print.
const critReplaysPaper, critIssuedPaper, critSpeedupPaper = "90.6%", "13.4%", "+3.4%"

// headline is a summary line: SpecSched_4_Crit's m against SpecSched_4.
func headline(label string, m *metric, paper string) claimLine {
	return claimLine{label, "SpecSched_4", []claim{{"", "SpecSched_4_Crit", m, paper}}}
}

// delayLine is a §5.3 line: SpecSched_<d>_Crit against SpecSched_<d>.
func delayLine(d, paperIssued, paperSpeedup string) claimLine {
	crit := "SpecSched_" + d + "_Crit"
	return claimLine{"delay " + d, "SpecSched_" + d, []claim{{"replays removed", crit, replaysCut, "~90%"},
		{"issued µ-ops reduced", crit, issuedCut, paperIssued}, {"speedup", crit, speedup, paperSpeedup}}}
}

// figures declares every report Run renders through Runner.figure.
var figures = map[string]*figure{
	"fig3": {perfTitle: "Fig 3: slowdown without speculative scheduling (vs Baseline_0)",
		perf: []string{"Baseline_0_1ld", "Baseline_2", "Baseline_4", "Baseline_6"}},
	"fig4": {perfTitle: "Fig 4a: SpecSched performance, dual-ported vs banked L1 (vs Baseline_0)",
		perf:        []string{"SpecSched_2_dual", "SpecSched_2", "SpecSched_4_dual", "SpecSched_4", "SpecSched_6_dual", "SpecSched_6"},
		replayTitle: "Fig 4b: issued µ-ops breakdown, banked L1 (normalized to Baseline_0 issued)",
		replay:      []string{"SpecSched_2", "SpecSched_4", "SpecSched_6"}},
	"fig5": {perfTitle: "Fig 5a: Schedule Shifting (vs Baseline_0)", perf: []string{"SpecSched_4", "SpecSched_4_Shift"},
		replayTitle: "Fig 5b: replayed µ-ops with Schedule Shifting",
		lines: []claimLine{
			{"bank-conflict replays removed by Shifting", "SpecSched_4", []claim{{"", "SpecSched_4_Shift", bankReplaysCut, "74.8%"}}},
			{"speedup over SpecSched_4", "SpecSched_4", []claim{{"", "SpecSched_4_Shift", speedup, "+2.9%"}}}}},
	"fig7": {perfTitle: "Fig 7a: hit/miss filtering (vs Baseline_0)", perf: []string{"SpecSched_4", "SpecSched_4_Ctr", "SpecSched_4_Filter"},
		replayTitle: "Fig 7b: replayed µ-ops with hit/miss filtering",
		lines: []claimLine{
			{"miss replays removed", "SpecSched_4", []claim{{"Ctr", "SpecSched_4_Ctr", missReplaysCut, "59.3%"}, {"Filter", "SpecSched_4_Filter", missReplaysCut, "65.0%"}}},
			{"total replays removed", "SpecSched_4", []claim{{"Ctr", "SpecSched_4_Ctr", replaysCut, "44.7%"}, {"Filter", "SpecSched_4_Filter", replaysCut, "45.4%"}}}}},
	"fig8": {perfTitle: "Fig 8a: Combined and Crit (vs Baseline_0)", perf: []string{"SpecSched_4", "SpecSched_4_Combined", "SpecSched_4_Crit"},
		replayTitle: "Fig 8b: replayed µ-ops, Combined and Crit",
		lines: []claimLine{
			{"replays removed", "SpecSched_4", []claim{{"Combined", "SpecSched_4_Combined", replaysCut, "68.2%"}, {"Crit", "SpecSched_4_Crit", replaysCut, critReplaysPaper}}},
			{"speedup over SpecSched_4", "SpecSched_4", []claim{{"Combined", "SpecSched_4_Combined", speedup, "+3.7%"}, {"Crit", "SpecSched_4_Crit", speedup, critSpeedupPaper}}},
			{"issued µ-ops reduced", "SpecSched_4", []claim{{"Combined", "SpecSched_4_Combined", issuedCut, "11.6%"}, {"Crit", "SpecSched_4_Crit", issuedCut, critIssuedPaper}}}}},
	"delays": {title: "§5.3 delay sweep: SpecSched_N_Crit vs SpecSched_N",
		lines: []claimLine{delayLine("2", "11.2%", "+2.3%"), delayLine("6", "18.7%", "+4.8%")}},
	"summary": {title: "Headline results (SpecSched_4_Crit vs SpecSched_4, 4-cycle issue-to-execute)", aligned: true,
		lines: []claimLine{headline("bank-conflict replays avoided", bankReplaysCut, "78.0%"),
			headline("L1-miss replays avoided", missReplaysCut, "96.5%"), headline("all replays avoided", replaysCut, critReplaysPaper),
			headline("issued µ-ops reduced", issuedCut, critIssuedPaper), headline("performance", speedup, critSpeedupPaper)}},
	"ablations": {totalsTitle: "Ablations (gmean vs Baseline_0; replay sums across suite)",
		totals: []string{"SpecSched_4", "SpecSched_4_Filter", "SpecSched_4_Crit", "SpecSched_4_Filter_NoSilence", "SpecSched_4_NoSLB",
			"SpecSched_4_SetInterleave", "SpecSched_4_IQRetention", "SpecSched_4_Crit_1K", "SpecSched_4_Crit_32K",
			"SpecSched_4_BankPred", "SpecSched_4_Shift_Selective"},
		cols: []column{{"gmean perf", speedup}, {"rpld miss", missReplaysCut}, {"rpld bank", bankReplaysCut}, {"issued", issuedCut}},
		note: "\nnotes:\n" +
			"  NoSilence   — plain 2-bit counters; the silence bit should do at least as well (§5.2)\n" +
			"  NoSLB       — same-set pairs now conflict; more bank replays than SpecSched_4 (§4.2)\n" +
			"  SetInterleave — expected to perform similarly to quadword interleaving (§4.2)\n" +
			"  IQRetention — µ-ops hold IQ entries until correct execution (§3.1)\n" +
			"  Crit_1K/32K — criticality table size sensitivity\n" +
			"  BankPred    — Yoaz-style bank predictor: shift only predicted conflicts (§2.2)\n" +
			"  Shift_Selective — Schedule Shifting under Pentium-4-style selective replay\n"},
	"replayschemes": {totalsTitle: "Replay schemes: Alpha-style squash vs Pentium-4-style selective",
		totals: []string{"SpecSched_4", "SpecSched_4_Selective", "SpecSched_4_Crit", "SpecSched_4_Crit_Selective"},
		cols:   []column{{"gmean perf", speedup}, {"replayed µ-ops", replaysCut}, {"issued", issuedCut}},
		lines: []claimLine{
			{"Crit's replay reduction under the Alpha scheme", "SpecSched_4", []claim{{"", "SpecSched_4_Crit", replaysCut, critReplaysPaper}}},
			{"Crit's replay reduction under selective replay", "SpecSched_4_Selective", []claim{{"", "SpecSched_4_Crit_Selective", replaysCut, "not reported"}}}},
		note: "(similar reductions = the mechanisms are replay-scheme-agnostic, §1)\n"},
}

func init() {
	for _, f := range figures {
		if f.replay == nil {
			f.replay = f.perf
		}
		cfgs := slices.Concat(f.perf, f.replay, f.totals)
		for _, l := range f.lines {
			if f.aligned {
				f.width = max(f.width, utf8.RuneCountInString(l.label))
			}
			for _, c := range l.claims {
				cfgs = append(cfgs, l.base, c.config)
			}
		}
		for _, cfg := range append(cfgs, baselineName) {
			if !slices.Contains(f.configs, cfg) {
				f.configs = append(f.configs, cfg)
			}
		}
	}
}

// figure renders f over its configs' pooled runs: the tables, then the
// heading or a blank line, then the claim lines.
func (r *Runner) figure(ctx context.Context, f *figure) (string, error) {
	set, err := r.Collect(ctx, f.configs...)
	if err != nil {
		return "", err
	}
	var perf, replay string
	if f.perfTitle != "" {
		perf = perfTable(f.perfTitle, set, f.perf)
	}
	if f.replayTitle != "" {
		replay = replayTable(f.replayTitle, set, f.replay)
	}
	var b strings.Builder
	b.WriteString(perf)
	if replay != "" {
		b.WriteByte('\n')
		b.WriteString(replay)
	}
	if f.totalsTitle != "" {
		b.WriteString(totalsTable(f.totalsTitle, set, f.totals, f.cols))
	}
	if f.title != "" {
		b.WriteString("== " + f.title + " ==\n")
	} else if len(f.lines) > 0 {
		b.WriteByte('\n')
	}
	for _, l := range f.lines {
		b.WriteString(l.label)
		b.WriteString(":" + strings.Repeat(" ", max(0, f.width-utf8.RuneCountInString(l.label))))
		sep := " "
		for _, c := range l.claims {
			b.WriteString(sep)
			sep = ", "
			if c.item != "" {
				b.WriteString(c.item + " ")
			}
			format := "%.1f%% (paper: %s)"
			if c.metric == speedup {
				format = "%+.1f%% (paper: %s)"
			} else if f.aligned {
				format = "%.1f%%  (paper: %s)"
			}
			fmt.Fprintf(&b, format, 100*c.metric.of(set, c.config, l.base), c.paper)
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.note)
	return b.String(), nil
}

// Names lists the experiment identifiers understood by Run.
func Names() []string {
	return []string{"table1", "table2", "fig3", "fig4", "fig5", "fig7", "fig8",
		"delays", "summary", "ablations", "replayschemes"}
}

// Run executes one named experiment and returns its report. A report's
// text is a pure function of its grid's pooled runs, which never change
// once every cell has succeeded, so the first render that succeeds is
// kept and later calls return it without touching the grid. A failed or
// canceled render keeps nothing; the next call retries its missing cells.
func (r *Runner) Run(ctx context.Context, name string) (string, error) {
	r.mu.Lock()
	text, ok := r.reports[name]
	r.mu.Unlock()
	if ok {
		return text, nil
	}
	text, err := r.render(ctx, name)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.reports[name] = text
	r.mu.Unlock()
	return text, nil
}

// render renders one named experiment from the runner's pooled runs,
// running whatever cells its grid still misses.
func (r *Runner) render(ctx context.Context, name string) (string, error) {
	if f := figures[name]; f != nil {
		return r.figure(ctx, f)
	}
	switch name {
	case "table1":
		return Table1(), nil
	case "table2":
		return r.Table2(ctx)
	default:
		known := Names()
		sort.Strings(known)
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, known)
	}
}
