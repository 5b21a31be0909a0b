package specsched_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"specsched"
)

func i64(v int64) *int64 { return &v }

// explicitSpec is a SweepSpec that states every default explicitly — the
// Go form of testdata/sweepspec.json.
func explicitSpec() specsched.SweepSpec {
	return specsched.SweepSpec{
		Configs:      []string{"Baseline_0", "SpecSched_4"},
		Workloads:    []string{"gzip", "hmmer"},
		Seeds:        2,
		Jobs:         4,
		Warmup:       i64(1000),
		Measure:      i64(4000),
		CellTimeout:  specsched.Duration(120 * 1e9),
		StallTimeout: specsched.Duration(30 * 1e9),
		Retries:      2,
		RetryBackoff: specsched.Duration(5 * 1e6),
	}
}

// TestSweepSpecRoundTrip pins the SweepSpec contract from three sides:
// NewSweepFromSpec(s).Spec() is the identity for an explicit spec, the
// JSON encoding round-trips losslessly (durations as strings included),
// and the knobs that only shape execution (jobs, timeouts, retries,
// backoff) leave every cell bit-identical to the plain grid.
func TestSweepSpecRoundTrip(t *testing.T) {
	spec := explicitSpec()

	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.Spec(); !reflect.DeepEqual(got, spec) {
		t.Fatalf("Spec() is not the inverse of NewSweepFromSpec:\n got  %+v\n want %+v", got, spec)
	}

	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back specsched.SweepSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Fatalf("JSON round trip changed the spec:\n json %s\n got  %+v\n want %+v", data, back, spec)
	}

	// Durations travel as human-readable strings, and both wire forms
	// (string and nanoseconds) decode.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire["stall_timeout"] != "30s" || wire["retry_backoff"] != "5ms" {
		t.Fatalf("durations not marshaled as strings: %s", data)
	}
	var d specsched.Duration
	if err := json.Unmarshal([]byte(`5000000`), &d); err != nil || d != specsched.Duration(5*1e6) {
		t.Fatalf("nanosecond duration form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("bad duration string must not decode")
	}

	// The execution knobs change nothing a cell computes.
	plain, err := mustSweep(t, gridSpec()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := sweep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != len(plain) {
		t.Fatalf("explicit spec ran %d cells, plain grid %d", len(explicit), len(plain))
	}
	for i := range plain {
		a, b := plain[i], explicit[i]
		a.Run.Elapsed, b.Run.Elapsed = 0, 0
		if a.CellRef != b.CellRef || a.Run != b.Run {
			t.Fatalf("cell %s: explicit spec diverged from the plain grid", a.CellRef)
		}
	}
}

// TestSweepSpecDefaults: an empty spec picks up the sweep defaults, and
// Spec() makes them explicit. Explicit zero warmup is honored, not
// defaulted — the pointer distinguishes absent from zero.
func TestSweepSpecDefaults(t *testing.T) {
	sweep, err := specsched.NewSweepFromSpec(specsched.SweepSpec{Configs: []string{"Baseline_0"}})
	if err != nil {
		t.Fatal(err)
	}
	got := sweep.Spec()
	if *got.Warmup != specsched.DefaultWarmup || *got.Measure != specsched.DefaultMeasure {
		t.Fatalf("defaults not applied: warmup %d, measure %d", *got.Warmup, *got.Measure)
	}
	if got.Seeds != 1 {
		t.Fatalf("seed default not canonicalized: %d", got.Seeds)
	}

	zero, err := specsched.NewSweepFromSpec(specsched.SweepSpec{
		Configs: []string{"Baseline_0"}, Warmup: i64(0), Measure: i64(500),
	})
	if err != nil {
		t.Fatal(err)
	}
	if *zero.Spec().Warmup != 0 {
		t.Fatal("explicit zero warmup was overridden by the default")
	}
}

// TestSweepSpecGolden guards the wire format itself: the committed sample
// spec must decode, build, and survive the Spec() round trip as the exact
// bytes on disk. A marshaling change that would break saved spec files or
// daemon clients fails here first.
func TestSweepSpecGolden(t *testing.T) {
	const golden = "testdata/sweepspec.json"
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := specsched.DecodeSweepSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if want := explicitSpec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("%s decodes to\n %+v\nwant\n %+v", golden, spec, want)
	}
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatalf("%s does not build: %v", golden, err)
	}
	out, err := json.MarshalIndent(sweep.Spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if string(out) != string(data) {
		if os.Getenv("SPECSCHED_UPDATE_SPEC") != "" {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s", golden)
			return
		}
		t.Fatalf("wire format drifted from %s (SPECSCHED_UPDATE_SPEC=1 to regenerate):\n got %s\nwant %s",
			golden, out, data)
	}
}

// TestDecodeSweepSpecStrict pins the one decoder every SweepSpec reader
// shares: a misspelled field or trailing data is an ErrInvalidConfig
// error, not a silent sweep of the defaults; trailing whitespace is fine.
func TestDecodeSweepSpecStrict(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"minimal", `{"configs":["Baseline_0"]}`, true},
		{"trailing-whitespace", "{\"configs\":[\"Baseline_0\"]}\n\t \n", true},
		{"misspelled-measure", `{"configs":["Baseline_0"],"measure":5000}`, false},
		{"unknown-field", `{"konfigs":["Baseline_0"]}`, false},
		// The scheduler and time-skip knobs left the wire format: a spec
		// that still names them is rejected, not run on the defaults.
		{"dropped-scheduler", `{"configs":["Baseline_0"],"scheduler":"event"}`, false},
		{"dropped-timeskip", `{"configs":["Baseline_0"],"timeskip":true}`, false},
		{"trailing-object", `{"configs":["Baseline_0"]}{}`, false},
		{"trailing-garbage", `{"configs":["Baseline_0"]} x`, false},
		{"truncated", `{"configs":["Baseline_0"]`, false},
		{"empty", ``, false},
		{"bad-duration", `{"cell_timeout":"fast"}`, false},
	} {
		spec, err := specsched.DecodeSweepSpec(strings.NewReader(tc.in))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && !reflect.DeepEqual(spec.Configs, []string{"Baseline_0"}):
			t.Errorf("%s: decoded %+v", tc.name, spec)
		case !tc.ok && !errors.Is(err, specsched.ErrInvalidConfig):
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// FuzzDecodeSweepSpec fuzzes the spec boundary every reader shares. The
// contract: decoding never panics; a decoded spec either builds or fails
// with one of the package's typed sentinels; and a built sweep's Spec()
// survives an encode/decode round trip unchanged. Specs naming trace
// files or a checkpoint are skipped so the fuzzer never touches the
// filesystem.
func FuzzDecodeSweepSpec(f *testing.F) {
	golden, err := os.ReadFile("testdata/sweepspec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, seed := range []string{
		`{}`,
		`{"configs":["Baseline_0"],"measure_uops":5000}`,
		`{"configs":["SpecSched_4_IQ256"],"workloads":["mcf"],"warmup_uops":0}`,
		`{"configs":["Nope"]}`,
		`{"workloads":["nope"]}`,
		`{"seeds":-1}`,
		`{"measure_uops":0}`,
		`{"cell_timeout":5000000,"retry_backoff":"-1s"}`,
		`{"chaos":{"Seed":7,"PanicRate":0.5,"MaxFaultsPerCell":1}}`,
		`{"chaos":{"HangRate":2}}`,
		`{"configs":["Baseline_0"]} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := specsched.DecodeSweepSpec(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, specsched.ErrInvalidConfig) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		if len(spec.Traces) > 0 || spec.Checkpoint != "" {
			t.Skip("spec touches the filesystem")
		}
		sweep, err := specsched.NewSweepFromSpec(spec)
		if err != nil {
			if !errors.Is(err, specsched.ErrInvalidConfig) && !errors.Is(err, specsched.ErrUnknownWorkload) &&
				!errors.Is(err, specsched.ErrBadTrace) {
				t.Fatalf("NewSweepFromSpec error outside the taxonomy: %v", err)
			}
			return
		}
		eff := sweep.Spec()
		out, err := json.Marshal(eff)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", eff, err)
		}
		back, err := specsched.DecodeSweepSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, eff) {
			t.Fatalf("Spec() round trip changed the spec:\n json %s\n got  %+v\n want %+v", out, back, eff)
		}
	})
}

// TestSweepSpecValidation is the error-taxonomy table: every way a spec
// can be wrong maps to exactly the documented sentinel, at construction
// time rather than at run time.
func TestSweepSpecValidation(t *testing.T) {
	dir := t.TempDir()
	okTrace := filepath.Join(dir, "gzip.trace")
	if err := specsched.WorkloadByName("gzip").Record(okTrace, 4000); err != nil {
		t.Fatal(err)
	}
	dupDir := filepath.Join(dir, "dup")
	if err := os.MkdirAll(dupDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dupTrace := filepath.Join(dupDir, "gzip.trace")
	if err := specsched.WorkloadByName("gzip").Record(dupTrace, 4000); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		spec specsched.SweepSpec
		want error
	}{
		{"unknown config", specsched.SweepSpec{Configs: []string{"Baseline_9"}}, specsched.ErrInvalidConfig},
		{"unknown workload", specsched.SweepSpec{Workloads: []string{"nope"}}, specsched.ErrUnknownWorkload},
		{"missing trace", specsched.SweepSpec{Traces: []string{filepath.Join(dir, "nope.trace")}}, specsched.ErrBadTrace},
		{"duplicate trace stems", specsched.SweepSpec{Traces: []string{okTrace, dupTrace}}, specsched.ErrInvalidConfig},
		{"negative seeds", specsched.SweepSpec{Seeds: -1}, specsched.ErrInvalidConfig},
		{"negative jobs", specsched.SweepSpec{Jobs: -2}, specsched.ErrInvalidConfig},
		{"negative retries", specsched.SweepSpec{Retries: -1}, specsched.ErrInvalidConfig},
		{"negative warmup", specsched.SweepSpec{Warmup: i64(-1)}, specsched.ErrInvalidConfig},
		{"zero measure", specsched.SweepSpec{Measure: i64(0)}, specsched.ErrInvalidConfig},
		{"negative cell timeout", specsched.SweepSpec{CellTimeout: -1}, specsched.ErrInvalidConfig},
		{"negative backoff", specsched.SweepSpec{RetryBackoff: -1}, specsched.ErrInvalidConfig},
		{"chaos rate out of range", specsched.SweepSpec{Chaos: &specsched.Chaos{PanicRate: 1.5}}, specsched.ErrInvalidConfig},
		{"chaos hang without a time bound", specsched.SweepSpec{Configs: []string{"Baseline_0"},
			Workloads: []string{"gzip"}, Measure: i64(2000), Chaos: &specsched.Chaos{HangRate: 1}}, specsched.ErrInvalidConfig},
	}
	for _, tc := range cases {
		sweep, err := specsched.NewSweepFromSpec(tc.spec)
		if sweep != nil || err == nil {
			t.Errorf("%s: spec was accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not match %v", tc.name, err, tc.want)
		}
	}

	// A hang is accepted once something bounds the cell.
	for _, bound := range []specsched.SweepSpec{
		{CellTimeout: specsched.Duration(time.Minute)},
		{StallTimeout: specsched.Duration(time.Minute)},
	} {
		bound.Chaos = &specsched.Chaos{HangRate: 1}
		if _, err := specsched.NewSweepFromSpec(bound); err != nil {
			t.Errorf("time-bounded chaos hang rejected: %v", err)
		}
	}

	// A trace workload name is valid precisely because the trace is listed.
	if _, err := specsched.NewSweepFromSpec(specsched.SweepSpec{
		Configs: []string{"Baseline_0"}, Workloads: []string{"gzip"}, Traces: []string{okTrace},
	}); err != nil {
		t.Fatalf("trace-backed workload rejected: %v", err)
	}
}

// TestSpecSweepWithTraces: a spec-built trace sweep replays the recorded
// stream exactly like the live workload it recorded.
func TestSpecSweepWithTraces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hmmer.trace")
	if err := specsched.WorkloadByName("hmmer").Record(path, 6000); err != nil {
		t.Fatal(err)
	}
	spec := specsched.SweepSpec{
		Configs: []string{"Baseline_0"},
		Traces:  []string{path},
		Warmup:  i64(500),
		Measure: i64(2000),
	}
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Workload != "hmmer" {
		t.Fatalf("trace sweep cells: %+v", cells)
	}
	live := spec
	live.Traces, live.Workloads = nil, []string{"hmmer"}
	want, err := mustSweep(t, live).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cells[0].Run, want[0].Run
	a.Elapsed, b.Elapsed = 0, 0
	if a != b {
		t.Fatal("spec-built trace sweep diverged from the live workload")
	}
	if !reflect.DeepEqual(sweep.Spec().Traces, []string{path}) {
		t.Fatal("traces lost in the Spec() round trip")
	}
}
