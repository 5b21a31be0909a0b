// Package dram models the main memory of Table 1: a single-channel
// DDR3-1600 (11-11-11) with 2 ranks of 8 banks, 8 KB row buffers, an 8 B
// data bus, and periodic refresh (tREFI 7.8 µs). The model is deterministic
// and tracks, per bank, the open row and the earliest cycle the bank can
// accept a new access; the shared channel bus serializes data bursts. It
// is demand-driven: an access computes its completion time when it is
// submitted, and bank and bus occupancy only delay later accesses, so
// nothing happens when an access completes.
//
// Calibration: a row-buffer hit on an idle bank costs
// tCAS + burst = (11+4)·5 = 75 CPU cycles, the paper's minimum read
// latency; a row conflict costs tRP + tRCD + tCAS + burst = 185 cycles,
// the paper's maximum.
package dram

import "specsched/internal/config"

const closedRow = int64(-1)

type bank struct {
	openRow int64
	readyAt int64 // earliest cycle the bank can start a new access
}

// DRAM is the memory controller + DIMM timing model. It is not safe for
// concurrent use.
type DRAM struct {
	cfg   config.DRAMConfig
	banks []bank
	// busFreeAt is the cycle at which the shared data bus becomes free.
	busFreeAt int64

	linesPerRow int
	numBanks    int
}

// New constructs the DRAM model from its configuration.
func New(cfg config.DRAMConfig) *DRAM {
	n := cfg.Ranks * cfg.BanksPerRank
	if n <= 0 {
		panic("dram: non-positive bank count")
	}
	if cfg.RowBytes <= 0 || cfg.CPUCyclesPerDRAMCycle <= 0 {
		panic("dram: invalid geometry")
	}
	d := &DRAM{
		cfg:         cfg,
		banks:       make([]bank, n),
		linesPerRow: cfg.RowBytes / 64,
		numBanks:    n,
	}
	for i := range d.banks {
		d.banks[i].openRow = closedRow
	}
	return d
}

// mapAddr decomposes a byte address into (bank, row). Row-adjacent lines
// stay in the same row so streaming accesses enjoy row-buffer hits; banks
// interleave at row granularity across the rank/bank space.
func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	line := int64(addr >> 6)
	rowGlobal := line / int64(d.linesPerRow)
	bankIdx = int(rowGlobal % int64(d.numBanks))
	row = rowGlobal / int64(d.numBanks)
	return bankIdx, row
}

func (d *DRAM) cpu(dramCycles int) int64 {
	return int64(dramCycles * d.cfg.CPUCyclesPerDRAMCycle)
}

// refreshDelay pushes start past any refresh window it lands in. Refresh
// occupies all banks for TRFCCycles every TREFICycles.
func (d *DRAM) refreshDelay(start int64) int64 {
	if d.cfg.TREFICycles <= 0 || d.cfg.TRFCCycles <= 0 {
		return start
	}
	windowStart := (start / d.cfg.TREFICycles) * d.cfg.TREFICycles
	if start < windowStart+int64(d.cfg.TRFCCycles) {
		return windowStart + int64(d.cfg.TRFCCycles)
	}
	return start
}

// Access requests the 64 B line containing addr at CPU cycle now and returns
// the cycle at which the line's data has fully arrived at the controller.
// The write flag models writebacks, which occupy the bank and bus but whose
// completion time nobody waits on; Access still returns it for symmetry.
func (d *DRAM) Access(addr uint64, now int64, write bool) int64 {
	bi, row := d.mapAddr(addr)
	b := &d.banks[bi]

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	start = d.refreshDelay(start)

	var coreLat int64
	switch {
	case b.openRow == row:
		coreLat = d.cpu(d.cfg.TCAS)
	case b.openRow == closedRow:
		coreLat = d.cpu(d.cfg.TRCD + d.cfg.TCAS)
	default:
		coreLat = d.cpu(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS)
	}
	b.openRow = row

	burst := d.cpu(d.cfg.BurstDRAMCycles)
	dataStart := start + coreLat + int64(d.cfg.ControllerOverhead)
	if d.busFreeAt > dataStart {
		dataStart = d.busFreeAt
	}
	d.busFreeAt = dataStart + burst
	ready := dataStart + burst

	// The bank is busy until the burst completes (a simplification of
	// tRAS/tRTP that keeps same-bank requests serialized).
	b.readyAt = ready
	_ = write
	return ready
}
