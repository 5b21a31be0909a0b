package results

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDerivedMetrics(t *testing.T) {
	r := Run{
		Cycles: 1000, Committed: 1500, Mispredicts: 3,
		ReplayedMiss: 40, ReplayedBank: 2,
		L1Hits: 90, L1Misses: 10,
	}
	if got := r.IPC(); got != 1.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := r.Replayed(); got != 42 {
		t.Errorf("Replayed = %v", got)
	}
	if got := r.MPKI(); got != 2 {
		t.Errorf("MPKI = %v", got)
	}
	if got := r.L1MissRate(); got != 0.1 {
		t.Errorf("L1MissRate = %v", got)
	}
	var zero Run
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.L1MissRate() != 0 {
		t.Error("zero-value Run must not divide by zero")
	}
}

func TestAccumulatePoolsCountersAndElapsed(t *testing.T) {
	a := Run{Workload: "gzip", Config: "Baseline_0", Cycles: 10, Committed: 20, Elapsed: time.Second}
	b := Run{Workload: "gzip", Config: "Baseline_0", Cycles: 1, Committed: 2, Elapsed: time.Second}
	a.Accumulate(&b)
	if a.Cycles != 11 || a.Committed != 22 {
		t.Fatalf("counters not pooled: %+v", a)
	}
	if a.Elapsed != 2*time.Second {
		t.Fatalf("Elapsed not summed: %v", a.Elapsed)
	}
	if a.Workload != "gzip" || a.Config != "Baseline_0" {
		t.Fatal("identity fields must be untouched")
	}
}

func TestSpeedupAndGMean(t *testing.T) {
	base := Run{Cycles: 100, Committed: 100} // IPC 1
	fast := Run{Cycles: 100, Committed: 150} // IPC 1.5
	if got := Speedup(&fast, &base); got != 1.5 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(&fast, &Run{}); got != 0 {
		t.Errorf("Speedup vs zero baseline = %v", got)
	}
	if got := GMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GMean = %v", got)
	}
	if got := GMean([]float64{2, 0, -3, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GMean must skip non-positive entries, got %v", got)
	}
	if got := GMean(nil); got != 0 {
		t.Errorf("GMean(nil) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "name", "x")
	tb.AddRowf(2, "a", 1.239)
	tb.AddRow("long-name-cell")
	out := tb.String()
	for _, want := range []string{"== T ==", "name", "1.24", "long-name-cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}
