package bpred

import (
	"testing"
	"testing/quick"

	"specsched/internal/config"
	"specsched/internal/rng"
)

func newTAGE() *TAGE {
	cfg := config.Default()
	return NewTAGE(&cfg)
}

// predictAndTrain runs one dynamic branch through the full predict/update
// protocol and reports whether the prediction was correct.
func predictAndTrain(t *TAGE, pc uint64, taken bool) bool {
	p := t.Predict(pc)
	t.UpdateHistory(taken)
	t.Update(pc, taken, p)
	return p.Taken == taken
}

func TestHistoryLengthsGeometric(t *testing.T) {
	tg := newTAGE()
	hl := tg.HistoryLengths()
	if len(hl) != 12 {
		t.Fatalf("component count = %d, want 12", len(hl))
	}
	for i := 1; i < len(hl); i++ {
		if hl[i] <= hl[i-1] {
			t.Fatalf("history lengths not strictly increasing: %v", hl)
		}
	}
	if hl[0] != 4 || hl[len(hl)-1] != 640 {
		t.Fatalf("history span = [%d, %d], want [4, 640]", hl[0], hl[len(hl)-1])
	}
}

func TestLearnsAlwaysTaken(t *testing.T) {
	tg := newTAGE()
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 200; i++ {
		if !predictAndTrain(tg, pc, true) && i > 4 {
			wrong++
		}
	}
	if wrong != 0 {
		t.Fatalf("always-taken branch mispredicted %d times after warmup", wrong)
	}
}

func TestLearnsAlternating(t *testing.T) {
	// A strictly alternating branch is perfectly correlated with its own
	// last outcome; TAGE must learn it via short history components.
	tg := newTAGE()
	pc := uint64(0x400200)
	wrong := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if !predictAndTrain(tg, pc, taken) && i > 1000 {
			wrong++
		}
	}
	if wrong > 10 {
		t.Fatalf("alternating branch mispredicted %d/1000 after training", wrong)
	}
}

func TestLearnsLoopPattern(t *testing.T) {
	// Pattern: 7 taken, 1 not-taken (a loop with trip count 8). Requires
	// medium-length history.
	tg := newTAGE()
	pc := uint64(0x400300)
	wrong := 0
	for i := 0; i < 8000; i++ {
		taken := i%8 != 7
		if !predictAndTrain(tg, pc, taken) && i > 4000 {
			wrong++
		}
	}
	if frac := float64(wrong) / 4000; frac > 0.02 {
		t.Fatalf("loop pattern misprediction rate %.3f, want < 0.02", frac)
	}
}

func TestRandomBranchNearCoinFlip(t *testing.T) {
	// An uncorrelated random branch cannot be predicted; the predictor
	// must not do catastrophically worse than 50%.
	tg := newTAGE()
	r := rng.New(99)
	pc := uint64(0x400400)
	wrong := 0
	const n = 4000
	for i := 0; i < n; i++ {
		taken := r.Bool(0.5)
		if !predictAndTrain(tg, pc, taken) {
			wrong++
		}
	}
	if frac := float64(wrong) / n; frac > 0.6 {
		t.Fatalf("random branch misprediction rate %.3f, want <= ~0.5", frac)
	}
}

func TestBiasedBranchBeatsBias(t *testing.T) {
	tg := newTAGE()
	r := rng.New(7)
	pc := uint64(0x400500)
	wrong := 0
	const n = 10000
	for i := 0; i < n; i++ {
		taken := r.Bool(0.9)
		if !predictAndTrain(tg, pc, taken) && i > 1000 {
			wrong++
		}
	}
	if frac := float64(wrong) / (n - 1000); frac > 0.15 {
		t.Fatalf("90%%-biased branch misprediction rate %.3f, want <= 0.15", frac)
	}
}

func TestMultipleBranchesNoDestructiveAliasing(t *testing.T) {
	tg := newTAGE()
	wrong := 0
	const n = 3000
	for i := 0; i < n; i++ {
		for b := 0; b < 16; b++ {
			pc := uint64(0x10000 + b*4)
			taken := b%2 == 0 // each branch has a fixed direction
			if !predictAndTrain(tg, pc, taken) && i > 100 {
				wrong++
			}
		}
	}
	if wrong > 50 {
		t.Fatalf("%d mispredictions across fixed-direction branches", wrong)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a, b := newTAGE(), newTAGE()
	r := rng.New(3)
	// Drive both with the same prefix.
	for i := 0; i < 500; i++ {
		taken := r.Bool(0.5)
		a.UpdateHistory(taken)
		b.UpdateHistory(taken)
	}
	snap := a.Snapshot()
	// Pollute a's history with wrong-path outcomes, then restore.
	for i := 0; i < 100; i++ {
		a.UpdateHistory(i%3 == 0)
	}
	a.Restore(snap)
	// The two predictors must now agree on folded state: feed identical
	// suffixes and compare predictions over many PCs.
	r2 := rng.New(17)
	for i := 0; i < 200; i++ {
		taken := r2.Bool(0.5)
		a.UpdateHistory(taken)
		b.UpdateHistory(taken)
	}
	for pc := uint64(0x5000); pc < 0x5400; pc += 4 {
		pa, pb := a.Predict(pc), b.Predict(pc)
		if pa.Taken != pb.Taken || pa.provider != pb.provider {
			t.Fatalf("pc %#x: restored predictor diverges (taken %v vs %v, provider %d vs %d)",
				pc, pa.Taken, pb.Taken, pa.provider, pb.provider)
		}
	}
}

func TestFoldedHistoryIncrementalMatchesRecompute(t *testing.T) {
	// Property: after any outcome sequence, the incrementally maintained
	// folded value equals the from-scratch recompute.
	f := func(seedLow uint32, steps uint8) bool {
		ghist := make([]byte, 256)
		inc := newFolded(17, 7)
		r := rng.New(uint64(seedLow))
		ptr := 0
		n := int(steps) + 20
		for i := 0; i < n; i++ {
			ptr++
			if r.Bool(0.5) {
				ghist[ptr&255] = 1
			} else {
				ghist[ptr&255] = 0
			}
			inc.update(uint32(ghist[ptr&255]), uint32(ghist[(ptr-17)&255]))
		}
		chk := newFolded(17, 7)
		chk.recompute(ghist, ptr)
		return chk.value == inc.value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBTBBasic(t *testing.T) {
	b := NewBTB(64, 2)
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("empty BTB returned a hit")
	}
	b.Insert(0x1000, 0x2000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Fatalf("Lookup = (%#x, %t), want (0x2000, true)", tgt, ok)
	}
	// Update in place.
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Fatalf("updated target = %#x, want 0x3000", tgt)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(8, 2)                                       // 4 sets, 2 ways
	set0 := func(i int) uint64 { return uint64(i) * 4 * 4 } // all map to set 0
	b.Insert(set0(1), 0xA)
	b.Insert(set0(2), 0xB)
	b.Lookup(set0(1)) // make way holding set0(1) most recent
	b.Insert(set0(3), 0xC)
	if _, ok := b.Lookup(set0(2)); ok {
		t.Fatal("LRU way not evicted")
	}
	if _, ok := b.Lookup(set0(1)); !ok {
		t.Fatal("MRU way evicted")
	}
	if _, ok := b.Lookup(set0(3)); !ok {
		t.Fatal("inserted entry missing")
	}
}

func TestBTBManyInsertionsAllRetrievable(t *testing.T) {
	b := NewBTB(8192, 2)
	for i := 0; i < 4096; i++ {
		pc := uint64(0x400000 + i*4) // consecutive instruction slots: distinct sets
		b.Insert(pc, pc+4)
	}
	misses := 0
	for i := 0; i < 4096; i++ {
		pc := uint64(0x400000 + i*4)
		if tgt, ok := b.Lookup(pc); !ok || tgt != pc+4 {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d/4096 entries lost in a half-full BTB", misses)
	}
}

// eagerBTB is the reference BTB replacement policy: every clock wrap
// halves all recencies at once. BTB must choose the same victims.
type eagerBTB struct {
	sets, ways int
	tags, tgts []uint64
	lru        []uint8
	clock      uint8
	wraps      int
}

func newEagerBTB(entries, ways int) *eagerBTB {
	return &eagerBTB{sets: entries / ways, ways: ways,
		tags: make([]uint64, entries), tgts: make([]uint64, entries),
		lru: make([]uint8, entries)}
}

func (b *eagerBTB) Lookup(pc uint64) (uint64, bool) {
	base := (int(pc>>2) & (b.sets - 1)) * b.ways
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc {
			b.touch(base + w)
			return b.tgts[base+w], true
		}
	}
	return 0, false
}

func (b *eagerBTB) Insert(pc, target uint64) {
	base := (int(pc>>2) & (b.sets - 1)) * b.ways
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.tags[i] == pc || b.tags[i] == 0 {
			victim = i
			break
		}
		if b.lru[i] < b.lru[victim] {
			victim = i
		}
	}
	b.tags[victim] = pc
	b.tgts[victim] = target
	b.touch(victim)
}

func (b *eagerBTB) touch(i int) {
	b.clock++
	if b.clock == 0 {
		for j := range b.lru {
			b.lru[j] >>= 1
		}
		b.clock = 128
		b.wraps++
	}
	b.lru[i] = b.clock
}

// TestBTBLazyAgingMatchesEager drives BTB and the eager reference through
// the same random Lookup/Insert stream, across thousands of clock wraps
// and dozens of re-basing passes, and requires identical hits, targets,
// victims and recencies. The small geometries force constant eviction
// between ways whose halved recencies tie.
func TestBTBLazyAgingMatchesEager(t *testing.T) {
	const calls = 1 << 20
	for _, g := range []struct{ entries, ways, pcs int }{
		{64, 2, 192},
		{64, 4, 160},
		{8192, 2, 24576},
	} {
		b := NewBTB(g.entries, g.ways)
		ref := newEagerBTB(g.entries, g.ways)
		r := rng.New(uint64(g.entries*g.ways + g.pcs))
		for n := 0; n < calls; n++ {
			pc := uint64(r.Intn(g.pcs)+1) * 4
			if r.Bool(0.6) {
				tgt, ok := b.Lookup(pc)
				wantTgt, wantOK := ref.Lookup(pc)
				if tgt != wantTgt || ok != wantOK {
					t.Fatalf("%d/%d-way call %d: Lookup(%#x) = (%#x, %t), eager (%#x, %t)",
						g.entries, g.ways, n, pc, tgt, ok, wantTgt, wantOK)
				}
			} else {
				b.Insert(pc, pc+uint64(n))
				ref.Insert(pc, pc+uint64(n))
				base := b.setOf(pc) * b.ways
				for i := base; i < base+b.ways; i++ {
					if b.tags[i] != ref.tags[i] {
						t.Fatalf("%d/%d-way call %d: Insert(%#x) left way %d = %#x, eager %#x",
							g.entries, g.ways, n, pc, i-base, b.tags[i], ref.tags[i])
					}
				}
			}
			if n%4096 == 0 || n == calls-1 {
				for i := range ref.lru {
					if got := b.recency(i); got != ref.lru[i] {
						t.Fatalf("%d/%d-way call %d: entry %d recency %d, eager %d",
							g.entries, g.ways, n, i, got, ref.lru[i])
					}
				}
			}
		}
		if ref.wraps < 2*256 {
			t.Fatalf("%d/%d-way: only %d clock wraps; the stream must cover several era cycles",
				g.entries, g.ways, ref.wraps)
		}
	}
}

func TestBTBInvalidGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBTB(0, 2) },
		func() { NewBTB(10, 3) },
		func() { NewBTB(24, 2) }, // 12 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid BTB geometry did not panic")
				}
			}()
			fn()
		}()
	}
}
