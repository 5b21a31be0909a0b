package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"specsched"
	"specsched/results"
)

func TestMain(m *testing.M) {
	// The figs traced run starts a worker process by re-executing this
	// test binary.
	specsched.MaybeWorker()
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsTiny runs every workload at self-test size, untraced and
// traced, and checks the result line names exactly the metrics
// BENCHMARK.json declares, with their units, and that the percentile
// sample counts are printed; in the traced run, that the stream's source
// layer is the one doing work.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	samples := regexp.MustCompile(`jobs: [1-9]\d* fresh, [1-9]\d* hit`)
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", traced, "--tiny", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				} else if !samples.MatchString(stderr.String()) {
					t.Errorf("no fresh and hit sample counts in:\n%s", stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				// Every workload generates its µ-ops; only the figs traced
				// run also drives the trace recorder and decoder.
				gen, dec := res.Metrics["trace.gen_ns_per_uop"].Value, res.Metrics["traceio.decode_ns_per_uop"].Value
				if wantDec := w.Name == "figs"; traced == "1" && (gen <= 0 || (dec > 0) != wantDec) {
					t.Errorf("trace.gen_ns_per_uop=%v traceio.decode_ns_per_uop=%v", gen, dec)
				}
			})
		}
	}
}

// TestDigestCheckFails proves the output check can fail: an altered
// architectural counter changes the digest and fails the stored-digest
// match, while the masked scheduler counters do not enter the digest.
func TestDigestCheckFails(t *testing.T) {
	runs := []results.Run{
		{Workload: "mcf", Config: "Baseline_0", Cycles: 1000, Committed: 700, SchedEvents: 40},
		{Workload: "gzip", Config: "Baseline_0", Cycles: 900, Committed: 800, L1Misses: 12},
	}
	base, err := digest(runs)
	if err != nil {
		t.Fatal(err)
	}
	stored := []byte(`{"figs": "` + base + `"}`)
	o := options{log: &bytes.Buffer{}}
	if err := matchStored(stored, "figs", base, o); err != nil {
		t.Fatalf("unaltered records: %v", err)
	}

	altered := append([]results.Run(nil), runs...)
	altered[1].Committed++
	got, err := digest(altered)
	if err != nil {
		t.Fatal(err)
	}
	if err := matchStored(stored, "figs", got, o); err == nil {
		t.Fatal("an altered record passed the digest check")
	}
	if sameRuns(altered, runs) {
		t.Fatal("sameRuns missed an altered record")
	}

	masked := append([]results.Run(nil), runs...)
	masked[0].SchedEvents = 99
	masked[0].Elapsed = 12345
	if got, _ := digest(masked); got != base {
		t.Fatal("a masked scheduler counter or the wall time changed the digest")
	}
}
