package specsched

import (
	"reflect"
	"testing"

	"specsched/internal/trace"
)

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
