package specsched

import (
	"context"
	"sync"
	"testing"

	"specsched/internal/config"
)

// TestReplayLaws checks, on every preset × six contrasting workloads at the
// default windows, the laws every simulated run must obey whatever its
// numbers are:
//
//   - under the squash recovery every preset uses, a replay event squashes
//     at most the D issue groups before it, so ReplayedMiss+ReplayedBank ≤
//     (MissReplayEvents+BankReplayEvents) × D × IssueWidth;
//   - a preset without speculative scheduling replays nothing;
//   - an unbanked L1 has no bank conflicts, bank replays or bank events;
//   - no operand arrives after its consumer executed (LateOperands == 0).
//
// A broken law is a model bug. The test also logs the largest
// |Issued − Unique − Replayed| and the tightest replay bound it saw.
// -short runs two workloads.
func TestReplayLaws(t *testing.T) {
	workloads := []string{"gzip", "mcf", "hmmer", "libquantum", "swim", "xalancbmk"}
	if testing.Short() {
		workloads = workloads[:2]
	}
	var mu sync.Mutex
	var residual int64
	var tightest float64
	var residualCell, tightestCell string
	t.Cleanup(func() {
		t.Logf("largest |Issued-Unique-Replayed| %d (%s); tightest replay bound used %.1f%% (%s)",
			residual, residualCell, 100*tightest, tightestCell)
	})
	for _, name := range config.Presets() {
		cfg, err := config.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, wl := range workloads {
				run, err := NewSimulator(WithPreset(name), WithWorkload(wl)).Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", wl, err)
				}
				cell := name + "/" + wl
				bound := (run.MissReplayEvents + run.BankReplayEvents) * int64(cfg.IssueToExecuteDelay*cfg.IssueWidth)
				if run.Replayed() > bound {
					t.Errorf("%s: %d replayed µ-ops exceed (%d+%d events) × D %d × width %d = %d", cell,
						run.Replayed(), run.MissReplayEvents, run.BankReplayEvents, cfg.IssueToExecuteDelay, cfg.IssueWidth, bound)
				}
				if !cfg.SpecSched && (run.Replayed() != 0 || run.MissReplayEvents+run.BankReplayEvents != 0) {
					t.Errorf("%s: no speculative scheduling, yet %d replayed µ-ops in %d miss + %d bank events",
						cell, run.Replayed(), run.MissReplayEvents, run.BankReplayEvents)
				}
				if !cfg.BankedL1 && (run.BankConflicts != 0 || run.ReplayedBank != 0 || run.BankReplayEvents != 0) {
					t.Errorf("%s: unbanked L1, yet %d bank conflicts, %d bank replays in %d events",
						cell, run.BankConflicts, run.ReplayedBank, run.BankReplayEvents)
				}
				if run.LateOperands != 0 {
					t.Errorf("%s: %d late operands", cell, run.LateOperands)
				}
				mu.Lock()
				if d := abs(run.Issued - run.Unique - run.Replayed()); d > residual {
					residual, residualCell = d, cell
				}
				if bound > 0 {
					if used := float64(run.Replayed()) / float64(bound); used > tightest {
						tightest, tightestCell = used, cell
					}
				}
				mu.Unlock()
			}
		})
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
