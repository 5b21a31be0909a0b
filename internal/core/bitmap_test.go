package core

import (
	"testing"

	"specsched/internal/config"
	"specsched/internal/trace"
)

// These are the wheel-style edge tests for the event scheduler's bitmap
// ready queue (readyBM): word-boundary and ring wraparound of the slot
// space, exact-capacity slot aliasing after clears, and the empty-word
// skip in wide multi-word configurations — the same seams the timing
// wheels are pinned on. The unit tests below drive readyBM directly; the
// integration tests run real cores through stepWithInvariants, whose
// checkInvariants cross-checks every set bit against the ROB, and
// against the scan scheduler for bit-identity.

// fakeReadyInst builds a detached inst with just enough state to file in
// a readyBM: a seq for the slot computation.
func fakeReadyInst(seq int64) *inst {
	e := &inst{}
	e.seq = seq
	return e
}

// TestReadyBMWordWraparound files candidates whose slots straddle an
// occupancy-word boundary and the ring boundary (slot capacity-1 -> 0),
// then verifies bit positions, per-family counts, and SoA rows — the
// bitmap analogue of TestWheelBitmapWraparound.
func TestReadyBMWordWraparound(t *testing.T) {
	bm := newReadyBM(192) // rounds up to capacity 256, 4 words/family
	if bm.mask != 255 || bm.nwords != 4 {
		t.Fatalf("capacity rounding: mask=%d nwords=%d, want 255/4", bm.mask, bm.nwords)
	}
	// Seqs 60..67 straddle words 0/1; seqs 250..260 straddle the ring
	// boundary (slots 250..255, then 0..4 on the next revolution).
	var filed []*inst
	for _, seq := range []int64{60, 61, 62, 63, 64, 65, 66, 67,
		250, 251, 252, 253, 254, 255, 256, 257, 258, 259, 260} {
		e := fakeReadyInst(seq)
		bm.set(e, famALU, 0)
		filed = append(filed, e)
	}
	if bm.count[famALU] != len(filed) {
		t.Fatalf("count[famALU]=%d, want %d", bm.count[famALU], len(filed))
	}
	for _, e := range filed {
		slot := e.seq & bm.mask
		if bm.words[famALU][slot>>6]&(1<<uint(slot&63)) == 0 {
			t.Errorf("seq %d: bit for slot %d (word %d) not set", e.seq, slot, slot>>6)
		}
		if bm.slotInst[slot] != e || bm.slotSeq[slot] != e.seq {
			t.Errorf("seq %d: SoA row for slot %d does not match", e.seq, slot)
		}
	}
	// Clearing every candidate must leave all four words empty.
	for _, e := range filed {
		slot := e.seq & bm.mask
		bm.clearSlot(slot, famALU)
	}
	if bm.count[famALU] != 0 {
		t.Fatalf("count[famALU]=%d after clearing all, want 0", bm.count[famALU])
	}
	for wi, w := range bm.words[famALU] {
		if w != 0 {
			t.Errorf("word %d nonzero after clearing all: %#x", wi, w)
		}
	}
}

// TestReadyBMExactCapacityAliasing pins the aliasing contract at its
// boundary: a contiguous seq span equal to the capacity maps injectively
// onto all slots (the exact-capacity regime a full ROB of size
// ROBEntries == capacity produces), and a slot freed by clearSlot is
// correctly reused by the seq one full revolution later.
func TestReadyBMExactCapacityAliasing(t *testing.T) {
	bm := newReadyBM(64) // capacity exactly 64: one word per family
	if bm.mask != 63 || bm.nwords != 1 {
		t.Fatalf("capacity: mask=%d nwords=%d, want 63/1", bm.mask, bm.nwords)
	}
	// A full window: seqs 100..163 fill every slot exactly once.
	for seq := int64(100); seq < 164; seq++ {
		bm.set(fakeReadyInst(seq), famLoad, 7)
	}
	if bm.count[famLoad] != 64 || bm.words[famLoad][0] != ^uint64(0) {
		t.Fatalf("full window: count=%d word=%#x, want 64/all-ones",
			bm.count[famLoad], bm.words[famLoad][0])
	}
	// Slot reuse one revolution later: clear seq 100's slot (issue or
	// squash), then file seq 164 — same slot, new SoA row.
	old := bm.slotInst[100&bm.mask]
	bm.clearSlot(100&bm.mask, famLoad)
	next := fakeReadyInst(100 + 64)
	bm.set(next, famALU, 9)
	slot := next.seq & bm.mask
	if slot != 100&bm.mask {
		t.Fatalf("seq %d landed in slot %d, want alias of slot %d", next.seq, slot, 100&bm.mask)
	}
	if bm.slotInst[slot] != next || bm.slotInst[slot] == old {
		t.Errorf("slot %d SoA row not overwritten by the aliasing candidate", slot)
	}
	if bm.slotFam[slot] != famALU || bm.slotEpoch[slot] != 9 {
		t.Errorf("slot %d fam/epoch = %d/%d, want %d/9", slot, bm.slotFam[slot], bm.slotEpoch[slot], famALU)
	}
}

// TestBitmapInvariantsAtCapacityEdges runs real cores in the slot-space
// edge regimes — ROBEntries equal to the minimum capacity (64, where a
// full ROB uses every slot), one past a power of two (65, forcing the
// round-up), and the wide window (512-entry ROB, eight words per family,
// where sparse ready sets exercise the empty-word skip) — on
// mispredict-heavy workloads so squash rollback repeatedly rewinds the
// seq counter across word and ring boundaries. checkInvariants validates
// the full bit/SoA/ROB correspondence every cycle, and each shape must
// stay bit-identical to the scan scheduler.
func TestBitmapInvariantsAtCapacityEdges(t *testing.T) {
	for _, tc := range []struct {
		name       string
		robEntries int
	}{
		{"exact-capacity-64", 64},
		{"round-up-65", 65},
		{"wide-512", 512},
	} {
		cfg, err := config.Preset("SpecSched_4")
		if err != nil {
			t.Fatal(err)
		}
		cfg.ROBEntries = tc.robEntries
		if tc.robEntries < cfg.IQEntries {
			cfg.IQEntries = tc.robEntries
		}
		for _, wl := range []string{"gzip", "xalancbmk"} {
			p, err := trace.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			c := MustNew(cfg, trace.New(p), p.Seed)
			stepWithInvariants(t, c, 12000, tc.name+"/"+wl)
			if c.run.Mispredicts == 0 {
				t.Fatalf("%s/%s: no mispredictions — squash rollback never exercised", tc.name, wl)
			}
			if c.run.SchedBitmapPicks == 0 || c.run.SchedBitmapWords == 0 {
				t.Fatalf("%s/%s: bitmap pick loop never ran: %+v", tc.name, wl, c.run)
			}
			scan := runScan(t, cfg, trace.New(p), p.Seed, 2000, 8000)
			event := runEvent(t, cfg, trace.New(p), p.Seed, true, 2000, 8000)
			compareRuns(t, tc.name+"/"+wl, scan, event)
		}
	}
}

// TestEventSchedulerBitmapCounters sanity-checks the observability
// counters: the event scheduler's bitmap pick loop must report picks and
// word visits, and the scan implementation must report none.
func TestEventSchedulerBitmapCounters(t *testing.T) {
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		impl  config.SchedulerImpl
	}{
		{"event", config.SchedEvent},
		{"scan", config.SchedScan},
	} {
		cfg, err := config.Preset("SpecSched_4")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler = tc.impl
		c := MustNew(cfg, trace.New(p), p.Seed)
		r := c.Run(2000, 10000)
		if tc.impl == config.SchedEvent {
			if r.SchedBitmapPicks == 0 || r.SchedBitmapWords == 0 {
				t.Fatalf("%s: bitmap counters zero: %+v", tc.label, r)
			}
			// Every pick comes out of a scanned word.
			if r.SchedBitmapPicks > 64*r.SchedBitmapWords {
				t.Fatalf("%s: %d picks from %d words — impossible density",
					tc.label, r.SchedBitmapPicks, r.SchedBitmapWords)
			}
		} else if r.SchedBitmapPicks != 0 || r.SchedBitmapWords != 0 {
			t.Fatalf("%s: scan run reported bitmap activity: %+v", tc.label, r)
		}
	}
}
