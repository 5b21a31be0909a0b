package dram

import (
	"testing"

	"specsched/internal/config"
)

func newDRAM() *DRAM {
	return New(config.Default().DRAM)
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	d := newDRAM()
	now := int64(2000) // avoid the refresh window at cycle 0
	ready := d.Access(0x10000, now, false)
	// Closed row: tRCD + tCAS + burst = (11+11+4)*5 = 130.
	if got := ready - now; got != 130 {
		t.Fatalf("closed-row latency = %d, want 130", got)
	}
}

func TestRowHitAfterOpen(t *testing.T) {
	d := newDRAM()
	now := int64(2000)
	r1 := d.Access(0x10000, now, false)
	// Next line in the same row, after the bank is free.
	r2 := d.Access(0x10040, r1, false)
	if got := r2 - r1; got != 75 {
		t.Fatalf("row-hit latency = %d, want 75 (Table 1 minimum)", got)
	}
}

func TestRowConflictLatency(t *testing.T) {
	d := newDRAM()
	now := int64(2000)
	r1 := d.Access(0x10000, now, false)
	// Same bank, different row: rows interleave across banks at row
	// granularity, so the same bank recurs every numBanks rows.
	cfg := config.Default().DRAM
	rowBytes := uint64(cfg.RowBytes)
	numBanks := uint64(cfg.Ranks * cfg.BanksPerRank)
	conflictAddr := uint64(0x10000) + rowBytes*numBanks
	r2 := d.Access(conflictAddr, r1, false)
	if got := r2 - r1; got != 185 {
		t.Fatalf("row-conflict latency = %d, want 185 (Table 1 maximum)", got)
	}
}

func TestSameBankSerializes(t *testing.T) {
	d := newDRAM()
	now := int64(2000)
	r1 := d.Access(0x10000, now, false)
	// Second access to the same bank issued while the first is in flight
	// must wait for the bank.
	r2 := d.Access(0x10040, now+1, false)
	if r2 <= r1 {
		t.Fatalf("overlapping same-bank accesses: r1=%d r2=%d", r1, r2)
	}
	if got := r2 - r1; got != 75 {
		t.Fatalf("queued row-hit took %d, want 75 after bank free", got)
	}
}

func TestDifferentBanksOverlapButShareBus(t *testing.T) {
	d := newDRAM()
	cfg := config.Default().DRAM
	now := int64(2000)
	r1 := d.Access(0x10000, now, false)
	// Next row maps to the next bank.
	otherBank := uint64(0x10000) + uint64(cfg.RowBytes)
	r2 := d.Access(otherBank, now, false)
	// Both are closed-row accesses started at the same time; the second
	// burst must wait for the bus: r2 = r1 + burst.
	if got := r2 - r1; got != int64(cfg.BurstDRAMCycles*cfg.CPUCyclesPerDRAMCycle) {
		t.Fatalf("bus serialization delta = %d, want %d", got,
			cfg.BurstDRAMCycles*cfg.CPUCyclesPerDRAMCycle)
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	d := newDRAM()
	cfg := config.Default().DRAM
	// An access landing just inside a refresh window is pushed to its end.
	start := cfg.TREFICycles * 5 // beginning of the 5th window
	ready := d.Access(0x10000, start, false)
	wantStart := start + int64(cfg.TRFCCycles)
	if ready != wantStart+130 {
		t.Fatalf("refresh-delayed ready = %d, want %d", ready, wantStart+130)
	}
}

func TestAccessOutsideRefreshWindowUnaffected(t *testing.T) {
	d := newDRAM()
	cfg := config.Default().DRAM
	start := cfg.TREFICycles*5 + int64(cfg.TRFCCycles) + 100
	ready := d.Access(0x10000, start, false)
	if ready-start != 130 {
		t.Fatalf("latency near refresh = %d, want 130", ready-start)
	}
}

func TestMonotoneReadyTimes(t *testing.T) {
	d := newDRAM()
	now := int64(2000)
	var prev int64
	for i := 0; i < 100; i++ {
		addr := uint64(i) * 64
		ready := d.Access(addr, now, false)
		if ready < now {
			t.Fatalf("access %d ready %d before request time %d", i, ready, now)
		}
		if ready < prev && i > 0 {
			// The shared bus serializes bursts, so completion times of
			// successive requests issued at the same cycle are monotone.
			t.Fatalf("access %d completes at %d, before previous %d", i, ready, prev)
		}
		prev = ready
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := config.Default().DRAM
	bad.Ranks = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid DRAM config did not panic")
		}
	}()
	New(bad)
}

func TestBankMappingCoversAllBanks(t *testing.T) {
	d := newDRAM()
	cfg := config.Default().DRAM
	seen := map[int]bool{}
	for i := 0; i < cfg.Ranks*cfg.BanksPerRank; i++ {
		addr := uint64(i) * uint64(cfg.RowBytes)
		b, _ := d.mapAddr(addr)
		seen[b] = true
	}
	if len(seen) != cfg.Ranks*cfg.BanksPerRank {
		t.Fatalf("row-granularity addresses hit %d banks, want %d",
			len(seen), cfg.Ranks*cfg.BanksPerRank)
	}
}
