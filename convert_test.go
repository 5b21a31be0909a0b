package specsched

import (
	"reflect"
	"testing"

	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/results"
)

// TestRunFieldParity pins the conversion contract behind runFromStats:
// every field of the internal stats.Run must exist in the public
// results.Run with the same name and type (results.Run may add
// public-only fields such as Elapsed). A new internal counter that is not
// mirrored publicly fails here, not as a silent zero in user reports.
func TestRunFieldParity(t *testing.T) {
	st := reflect.TypeFor[stats.Run]()
	rt := reflect.TypeFor[results.Run]()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		pub, ok := rt.FieldByName(f.Name)
		if !ok {
			t.Errorf("stats.Run.%s has no counterpart in results.Run", f.Name)
			continue
		}
		if pub.Type != f.Type {
			t.Errorf("results.Run.%s is %v, internal counter is %v", f.Name, pub.Type, f.Type)
		}
	}
	// The scheduler observability counters are part of the public results
	// contract in their own right, not merely mirrors of whatever the
	// internal record happens to hold: pin them by name so dropping one
	// from stats.Run fails here instead of silently shrinking the API.
	for _, name := range []string{
		"SchedWakeups", "SchedEvents",
		"SkippedCycles", "SkipSpans",
		"SchedBitmapPicks", "SchedBitmapWords",
	} {
		if f, ok := rt.FieldByName(name); !ok {
			t.Errorf("results.Run lacks scheduler observability counter %s", name)
		} else if f.Type.Kind() != reflect.Int64 {
			t.Errorf("results.Run.%s is %v, want int64", name, f.Type)
		}
	}
}

// TestRunFromStatsCopiesEverything: a fully populated internal record must
// convert with no field dropped.
func TestRunFromStatsCopiesEverything(t *testing.T) {
	var sr stats.Run
	sv := reflect.ValueOf(&sr).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.String:
			f.SetString("x")
		}
	}
	out := runFromStats(&sr)
	ov := reflect.ValueOf(out)
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		got := ov.FieldByName(st.Field(i).Name)
		if want := sv.Field(i); !want.Equal(got) {
			t.Errorf("field %s: converted %v, want %v", st.Field(i).Name, got, want)
		}
	}
}

// TestRunFromStatsAllocs guards the per-cell conversion cost: the field
// plan is resolved once per process, so a conversion is a fixed handful
// of reflect copies, not a name lookup per field.
func TestRunFromStatsAllocs(t *testing.T) {
	sr := stats.Run{Cycles: 1}
	runFromStats(&sr) // resolve the plan outside the measurement
	if n := testing.AllocsPerRun(100, func() { runFromStats(&sr) }); n > 1 {
		t.Fatalf("runFromStats makes %v allocations per call, want at most 1", n)
	}
}

// TestAgenKindParity pins the numeric correspondence the Profile
// conversion relies on.
func TestAgenKindParity(t *testing.T) {
	pairs := []struct {
		pub AgenKind
		in  trace.AgenKind
	}{
		{AgenStride, trace.AgenStride},
		{AgenRandom, trace.AgenRandom},
		{AgenChase, trace.AgenChase},
	}
	for _, p := range pairs {
		if uint8(p.pub) != uint8(p.in) {
			t.Errorf("public AgenKind %d != internal %d", p.pub, p.in)
		}
	}
}

// TestProfileFieldParity: the public Profile must mirror every exported
// field of the internal generator profile except the internal-only
// PaperIPC (calibration metadata, not a workload parameter).
func TestProfileFieldParity(t *testing.T) {
	internalOnly := map[string]bool{"PaperIPC": true}
	it := reflect.TypeFor[trace.Profile]()
	pt := reflect.TypeFor[Profile]()
	for i := 0; i < it.NumField(); i++ {
		f := it.Field(i)
		if internalOnly[f.Name] {
			continue
		}
		if _, ok := pt.FieldByName(f.Name); !ok {
			t.Errorf("trace.Profile.%s is not mirrored in the public Profile", f.Name)
		}
	}
	// And the conversion must transport every mirrored field: a profile
	// with distinct non-zero values round-trips.
	p := Profile{
		Name: "t", Seed: 1, Blocks: 2, BlockLen: 3,
		LoadFrac: .04, StoreFrac: .05, FPFrac: .06, MulDivFrac: .07,
		MeanDepDist: 8, UseBaseFrac: .09, AddrDepFrac: .10, LoadUseFrac: .11,
		Agens:         []AgenSpec{{Kind: AgenChase, Footprint: 12, Stride: 13, Weight: 14}},
		InnerLoopFrac: .15, LoopTrip: 16, SkipFrac: .17, SkipBias: .18, RandomBranchFrac: .19,
	}
	tp := p.toTrace()
	tv := reflect.ValueOf(tp)
	pv := reflect.ValueOf(p)
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		if name == "Agens" {
			continue // different element types, checked below
		}
		if got, want := tv.FieldByName(name).Interface(), pv.Field(i).Interface(); got != want {
			t.Errorf("toTrace dropped %s: %v != %v", name, got, want)
		}
	}
	if len(tp.Agens) != 1 || tp.Agens[0] != (trace.AgenSpec{Kind: trace.AgenChase, Footprint: 12, Stride: 13, Weight: 14}) {
		t.Errorf("toTrace mangled Agens: %+v", tp.Agens)
	}
}
