package predict

import (
	"testing"

	"specsched/internal/rng"
)

func TestGlobalCounterStartsOptimistic(t *testing.T) {
	g := NewGlobalCounter()
	if !g.SpeculateHit() {
		t.Fatal("fresh counter must allow speculation")
	}
}

func TestGlobalCounterMissStorm(t *testing.T) {
	g := NewGlobalCounter()
	for i := 0; i < 4; i++ {
		g.Tick(true)
	}
	if g.SpeculateHit() {
		t.Fatalf("after 4 miss cycles value=%d, speculation should stop", g.Value())
	}
}

func TestGlobalCounterRecovery(t *testing.T) {
	g := NewGlobalCounter()
	for i := 0; i < 8; i++ {
		g.Tick(true)
	}
	if g.Value() != 0 {
		t.Fatalf("value = %d, want saturated at 0", g.Value())
	}
	// 2:1 asymmetry: 8 hit cycles take it back to the threshold.
	for i := 0; i < 7; i++ {
		g.Tick(false)
	}
	if g.SpeculateHit() {
		t.Fatal("recovered too early")
	}
	g.Tick(false)
	if !g.SpeculateHit() {
		t.Fatal("should speculate again after 8 clean cycles")
	}
}

func TestGlobalCounterSaturatesHigh(t *testing.T) {
	g := NewGlobalCounter()
	for i := 0; i < 100; i++ {
		g.Tick(false)
	}
	if g.Value() != 15 {
		t.Fatalf("value = %d, want 15", g.Value())
	}
}

func TestFilterAlwaysHitLoad(t *testing.T) {
	f := NewFilter(2048, 10000, false)
	pc := uint64(0x400)
	if f.Predict(pc) != FilterUnknown {
		t.Fatal("untrained entry should be unknown")
	}
	f.Update(pc, true)
	if f.Predict(pc) != FilterSureHit {
		t.Fatal("after one hit from transient start, entry should reach sure-hit")
	}
	for i := 0; i < 10; i++ {
		f.Update(pc, true)
	}
	if f.Predict(pc) != FilterSureHit {
		t.Fatal("sure-hit lost under consistent hits")
	}
}

func TestFilterAlwaysMissLoad(t *testing.T) {
	f := NewFilter(2048, 10000, false)
	pc := uint64(0x500)
	f.Update(pc, false)
	f.Update(pc, false)
	if f.Predict(pc) != FilterSureMiss {
		t.Fatalf("always-miss load predicted %v, want sure-miss", f.Predict(pc))
	}
}

func TestFilterSilencesOnFlip(t *testing.T) {
	f := NewFilter(2048, 10000, false)
	pc := uint64(0x600)
	f.Update(pc, true)  // ctr 2 -> 3
	f.Update(pc, false) // leaves saturated: silence
	if f.Predict(pc) != FilterUnknown {
		t.Fatal("flipping load must be silenced")
	}
	// Counter frozen while silent.
	for i := 0; i < 5; i++ {
		f.Update(pc, false)
	}
	if f.Predict(pc) != FilterUnknown {
		t.Fatal("silenced entry trained")
	}
}

func TestFilterSilenceReset(t *testing.T) {
	f := NewFilter(2048, 4, false)
	pc := uint64(0x700)
	f.Update(pc, true)
	f.Update(pc, false) // silenced; sinceReset=2
	f.Update(0x9999, true)
	if f.Predict(pc) != FilterUnknown {
		t.Fatal("silence bit cleared before the reset interval elapsed")
	}
	f.Update(0x9999, true) // 4th update triggers reset
	// After the reset the frozen counter (3) speaks again.
	if f.Predict(pc) != FilterSureHit {
		t.Fatalf("after silence reset, predict = %v, want sure-hit (frozen ctr)", f.Predict(pc))
	}
}

func TestFilterNoSilenceAblation(t *testing.T) {
	f := NewFilter(2048, 10000, true)
	pc := uint64(0x800)
	// Plain 2-bit counter: tracks majority, MSB decides, never unknown.
	f.Update(pc, true)
	if f.Predict(pc) != FilterSureHit {
		t.Fatal("no-silence filter should predict hit")
	}
	f.Update(pc, false)
	f.Update(pc, false)
	f.Update(pc, false)
	if f.Predict(pc) != FilterSureMiss {
		t.Fatal("no-silence filter should flip to miss")
	}
}

func TestFilterMostlyMissWithRareHitsStaysUseful(t *testing.T) {
	// A libquantum-style load: misses dominate. With the silence bit the
	// entry silences on the rare hit but is revived by the periodic
	// reset, spending most of its time at sure-miss.
	f := NewFilter(2048, 100, false)
	r := rng.New(11)
	pc := uint64(0x900)
	sureMiss := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if f.Predict(pc) == FilterSureMiss {
			sureMiss++
		}
		f.Update(pc, r.Bool(0.02)) // 2% hits
	}
	if frac := float64(sureMiss) / n; frac < 0.35 {
		t.Fatalf("sure-miss fraction %.2f, want > 0.35 for a 98%%-miss load", frac)
	}
}

func TestFilterOutcomeString(t *testing.T) {
	if FilterSureHit.String() != "sure-hit" || FilterSureMiss.String() != "sure-miss" ||
		FilterUnknown.String() != "unknown" {
		t.Fatal("FilterOutcome stringer broken")
	}
}

func TestFilterInvalidGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid filter size did not panic")
		}
	}()
	NewFilter(1000, 10000, false)
}

func TestCriticalityDefaultsCritical(t *testing.T) {
	c := NewCriticality(8192, 4)
	if !c.Critical(0x400) {
		t.Fatal("untrained µ-op must default to critical (keep speculating)")
	}
}

func TestCriticalityLearnsNonCritical(t *testing.T) {
	c := NewCriticality(8192, 4)
	pc := uint64(0x400)
	c.Update(pc, false)
	if c.Critical(pc) {
		t.Fatal("one non-critical observation should flip the sign (0 -> -1)")
	}
	for i := 0; i < 20; i++ {
		c.Update(pc, false)
	}
	// Saturated at -8; takes 8 critical observations to flip back.
	for i := 0; i < 7; i++ {
		c.Update(pc, true)
	}
	if c.Critical(pc) {
		t.Fatal("hysteresis broken: flipped too early")
	}
	c.Update(pc, true)
	if !c.Critical(pc) {
		t.Fatal("should predict critical after sustained critical behaviour")
	}
}

func TestCriticalityCounterWidth(t *testing.T) {
	c := NewCriticality(64, 2) // range [-2, 1]
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		c.Update(pc, true)
	}
	for i := 0; i < 2; i++ {
		c.Update(pc, false)
	}
	// Saturation at +1 means two non-critical updates reach -1.
	if c.Critical(pc) {
		t.Fatal("2-bit counter should have flipped after two decrements")
	}
}

func TestCriticalityInvalidGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCriticality(100, 4) },
		func() { NewCriticality(64, 1) },
		func() { NewCriticality(64, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid criticality geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBankPredictorLearnsStableBank(t *testing.T) {
	b := NewBankPredictor(64)
	pc := uint64(0x40)
	if _, conf := b.Predict(pc); conf {
		t.Fatal("untrained predictor claims confidence")
	}
	for i := 0; i < 4; i++ {
		b.Update(pc, 5)
	}
	bank, conf := b.Predict(pc)
	if !conf || bank != 5 {
		t.Fatalf("Predict = (%d, %t), want (5, true)", bank, conf)
	}
}

func TestBankPredictorTracksChange(t *testing.T) {
	b := NewBankPredictor(64)
	pc := uint64(0x40)
	for i := 0; i < 4; i++ {
		b.Update(pc, 2)
	}
	// Bank changes: confidence must decay before the new bank installs.
	for i := 0; i < 8; i++ {
		b.Update(pc, 7)
	}
	bank, conf := b.Predict(pc)
	if !conf || bank != 7 {
		t.Fatalf("Predict after change = (%d, %t), want (7, true)", bank, conf)
	}
}

func TestBankPredictorAlternatingStaysUnconfident(t *testing.T) {
	b := NewBankPredictor(64)
	pc := uint64(0x40)
	for i := 0; i < 50; i++ {
		b.Update(pc, i%2)
	}
	if _, conf := b.Predict(pc); conf {
		t.Fatal("alternating banks should not yield confidence")
	}
}

func TestBankPredictorInvalidGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid size did not panic")
		}
	}()
	NewBankPredictor(100)
}
