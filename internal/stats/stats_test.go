package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"specsched/results"
)

func run(wl, cfg string, committed, cycles int64) *Run {
	return &Run{Workload: wl, Config: cfg, Committed: committed, Cycles: cycles}
}

func TestIPC(t *testing.T) {
	r := run("a", "c", 200, 100)
	if got := r.IPC(); got != 2.0 {
		t.Fatalf("IPC = %v, want 2", got)
	}
	empty := &Run{}
	if got := empty.IPC(); got != 0 {
		t.Fatalf("IPC of empty run = %v, want 0", got)
	}
}

func TestGMeanBasics(t *testing.T) {
	if g := results.GMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GMean(2,8) = %v, want 4", g)
	}
	if g := results.GMean(nil); g != 0 {
		t.Fatalf("GMean(nil) = %v, want 0", g)
	}
	if g := results.GMean([]float64{0, -1}); g != 0 {
		t.Fatalf("GMean of non-positives = %v, want 0", g)
	}
}

func TestGMeanSkipsNonPositive(t *testing.T) {
	if g := results.GMean([]float64{4, 0}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GMean(4,0) = %v, want 4 (0 skipped)", g)
	}
}

func TestGMeanScaleInvariance(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a)/16 + 0.5, float64(b)/16 + 0.5, float64(c)/16 + 0.5}
		g1 := results.GMean(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 2
		}
		g2 := results.GMean(scaled)
		return math.Abs(g2-2*g1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	base := run("a", "base", 100, 100) // IPC 1
	fast := run("a", "fast", 150, 100) // IPC 1.5
	if s := results.Speedup(fast, base); math.Abs(s-1.5) > 1e-12 {
		t.Fatalf("Speedup = %v, want 1.5", s)
	}
	if s := results.Speedup(fast, &Run{}); s != 0 {
		t.Fatalf("Speedup vs zero baseline = %v, want 0", s)
	}
}

func TestSetRoundTrip(t *testing.T) {
	for name, s := range map[string]*Set{"NewSet": NewSet(), "NewSetSize": NewSetSize(2, 1)} {
		s.Add(run("wl1", "cfgA", 100, 100))
		s.Add(run("wl1", "cfgB", 200, 100))
		s.Add(run("wl2", "cfgA", 300, 100)) // a workload after cfgB's row exists
		if got := s.Get("cfgA", "wl1").Committed; got != 100 {
			t.Fatalf("%s: Get returned wrong run, committed = %d", name, got)
		}
		if s.Get("cfgC", "wl1") != nil || s.Get("cfgB", "wl2") != nil || s.Get("cfgA", "wl3") != nil {
			t.Fatalf("%s: Get of a missing run should be nil", name)
		}
		if wls := s.Workloads(); len(wls) != 2 || wls[0] != "wl1" || wls[1] != "wl2" {
			t.Fatalf("%s: Workloads = %v", name, wls)
		}
		if cfgs := s.Configs(); len(cfgs) != 2 || cfgs[0] != "cfgA" || cfgs[1] != "cfgB" {
			t.Fatalf("%s: Configs = %v", name, cfgs)
		}
		ci := s.ConfigIndex("cfgA")
		if got := s.At(ci, 1).Committed; got != 300 {
			t.Fatalf("%s: At(cfgA, wl2) committed = %d", name, got)
		}
		if s.ConfigIndex("cfgC") != -1 || s.At(-1, 0) != nil || s.At(s.ConfigIndex("cfgB"), 1) != nil || s.At(ci, 2) != nil {
			t.Fatalf("%s: At of a missing run should be nil", name)
		}
	}
}

func TestSetReplacesDuplicates(t *testing.T) {
	s := NewSet()
	s.Add(run("wl", "cfg", 100, 100))
	s.Add(run("wl", "cfg", 500, 100))
	if got := s.Get("cfg", "wl").Committed; got != 500 {
		t.Fatalf("duplicate Add did not replace: committed = %d", got)
	}
	if n := len(s.Workloads()); n != 1 {
		t.Fatalf("duplicate Add duplicated workload list: %d entries", n)
	}
}

func TestGMeanSpeedup(t *testing.T) {
	s := NewSet()
	s.Add(run("w1", "base", 100, 100))
	s.Add(run("w2", "base", 100, 100))
	s.Add(run("w1", "new", 200, 100)) // 2x
	s.Add(run("w2", "new", 50, 100))  // 0.5x
	if g := s.GMeanSpeedup("new", "base"); math.Abs(g-1.0) > 1e-12 {
		t.Fatalf("GMeanSpeedup = %v, want 1.0", g)
	}
}

func TestReductionVs(t *testing.T) {
	s := NewSet()
	a := run("w1", "base", 1, 1)
	a.ReplayedMiss = 100
	b := run("w1", "new", 1, 1)
	b.ReplayedMiss = 25
	s.Add(a)
	s.Add(b)
	red := s.ReductionVs("new", "base", func(r *Run) int64 { return r.ReplayedMiss })
	if math.Abs(red-0.75) > 1e-12 {
		t.Fatalf("ReductionVs = %v, want 0.75", red)
	}
	if red := s.ReductionVs("new", "missing", func(r *Run) int64 { return r.ReplayedMiss }); red != 0 {
		t.Fatalf("ReductionVs with empty base = %v, want 0", red)
	}
}

func TestRunDerivedMetrics(t *testing.T) {
	r := &Run{Committed: 1000, Mispredicts: 5, L1Hits: 90, L1Misses: 10,
		ReplayedMiss: 7, ReplayedBank: 3}
	if m := r.MPKI(); math.Abs(m-5) > 1e-12 {
		t.Fatalf("MPKI = %v, want 5", m)
	}
	if mr := r.L1MissRate(); math.Abs(mr-0.1) > 1e-12 {
		t.Fatalf("L1MissRate = %v, want 0.1", mr)
	}
	if tot := r.Replayed(); tot != 10 {
		t.Fatalf("Replayed = %d, want 10", tot)
	}
	zero := &Run{}
	if zero.MPKI() != 0 || zero.L1MissRate() != 0 {
		t.Fatal("zero run derived metrics should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("x", "1")
	tb.AddRowf(2, "y", 3.14159)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "value", "x", "3.14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "3.14159") {
		t.Fatalf("AddRowf did not truncate precision:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatalf("missing cell in output:\n%s", out)
	}
}

// TestAccumulateSumsEveryCounter sets every int64 field of both operands
// to known values via reflection, so a future counter added to Run cannot
// silently escape seed-replica pooling.
func TestAccumulateSumsEveryCounter(t *testing.T) {
	a := &Run{Workload: "gzip", Config: "Baseline_0"}
	b := &Run{Workload: "gzip", Config: "Baseline_0"}
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	n := 0
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Int64:
			av.Field(i).SetInt(int64(i + 1))
			bv.Field(i).SetInt(int64(10 * (i + 1)))
			n++
		case reflect.String: // identity fields, not pooled
		default:
			// Accumulate only sums int64 fields; any other counter kind
			// would silently escape seed-replica pooling.
			t.Fatalf("field %s has kind %s — extend Run.Accumulate (and this test) to pool it",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
	}
	if n < 20 {
		t.Fatalf("only %d int64 counters found — Run layout changed?", n)
	}
	a.Accumulate(b)
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Int64:
			if got, want := av.Field(i).Int(), int64(11*(i+1)); got != want {
				t.Errorf("field %s: got %d, want %d", av.Type().Field(i).Name, got, want)
			}
		case reflect.String:
			if av.Field(i).String() == "" {
				t.Errorf("identity field %s was clobbered", av.Type().Field(i).Name)
			}
		}
	}
}

// TestAccumulatePoolsRatios: pooled IPC is total committed over total
// cycles, not a mean of per-replica IPCs.
func TestAccumulatePoolsRatios(t *testing.T) {
	a := run("gzip", "Baseline_0", 100, 100) // IPC 1.0
	b := run("gzip", "Baseline_0", 100, 300) // IPC 0.33
	a.Accumulate(b)
	if got, want := a.IPC(), 200.0/400.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("pooled IPC %f, want %f", got, want)
	}
}

// TestMaskSchedulerCounters pins which counters are simulator-side: the
// differential suites compare masked records across scheduler
// implementations and time-advance modes, so a counter that describes the
// simulator (wakeups, fired events, skipped cycles) must zero out while
// every architectural counter survives.
func TestMaskSchedulerCounters(t *testing.T) {
	r := Run{
		Workload: "wl", Config: "cfg",
		Cycles: 100, Committed: 50, Issued: 60,
		SchedWakeups: 7, SchedEvents: 8, SkippedCycles: 40, SkipSpans: 3,
	}
	m := r.MaskSchedulerCounters()
	if m.SchedWakeups != 0 || m.SchedEvents != 0 || m.SkippedCycles != 0 || m.SkipSpans != 0 {
		t.Fatalf("simulator-side counters survived the mask: %+v", m)
	}
	if m.Cycles != 100 || m.Committed != 50 || m.Issued != 60 || m.Workload != "wl" {
		t.Fatalf("architectural counters damaged by the mask: %+v", m)
	}
}
