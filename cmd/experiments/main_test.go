package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"specsched"
)

// TestMain installs the worker hook so -workers runs can re-exec this test
// binary as their cell workers.
func TestMain(m *testing.M) {
	specsched.MaybeWorker()
	os.Exit(m.Run())
}

const specFile = "../../testdata/sweepspec.json"

// runCLI runs the command in-process and returns its exit code, stdout and
// stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSpecDumpIsByteIdentical(t *testing.T) {
	want, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-spec", specFile, "-dump")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if out != string(want) {
		t.Fatalf("-spec -dump is not the file back:\n%s\nwant:\n%s", out, want)
	}
}

// TestFlagDumpMatchesNewSweep pins the flag binder: every flag lands in the
// SweepSpec field the equivalent library option sets.
func TestFlagDumpMatchesNewSweep(t *testing.T) {
	for _, tc := range []struct {
		args []string
		opts []specsched.SweepOption
	}{
		{nil, []specsched.SweepOption{
			specsched.SweepWorkloads(specsched.WorkloadNames()...),
		}},
		{[]string{"-configs", "Baseline_0,SpecSched_4", "-workloads", "gzip,mcf,swim", "-filter", "^(gzip|mcf)$",
			"-seeds", "2", "-jobs", "3", "-warmup", "0", "-measure", "8000",
			"-stall-timeout", "5s", "-retry-backoff", "10ms"},
			[]specsched.SweepOption{
				specsched.SweepConfigs("Baseline_0", "SpecSched_4"), specsched.SweepWorkloads("gzip", "mcf"),
				specsched.SweepSeeds(2), specsched.SweepJobs(3), specsched.Warmup(0), specsched.Measure(8000),
				specsched.SweepStallTimeout(5 * time.Second),
				specsched.SweepRetryBackoff(10*time.Millisecond, 0),
			}},
		{[]string{"-workloads", "gzip", "-chaos", "0.3", "-chaos-seed", "7", "-retries", "4", "-timeout", "1m",
			"-resume", "c.ckpt", "-workers", "2"},
			[]specsched.SweepOption{
				specsched.SweepWorkloads("gzip"), specsched.SweepRetries(4),
				specsched.SweepCellTimeout(time.Minute), specsched.SweepCheckpoint("c.ckpt"), specsched.SweepWorkers(2),
				specsched.SweepChaos(specsched.Chaos{Seed: 7, PanicRate: 0.3, HangRate: 0.3, TransientRate: 0.3, TornWriteRate: 0.3}),
			}},
	} {
		code, out, errOut := runCLI(t, append(tc.args, "-dump")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut)
		}
		got, err := specsched.DecodeSweepSpec(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if want := specsched.NewSweep(tc.opts...).Spec(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: dump decodes to\n%+v\nwant\n%+v", tc.args, got, want)
		}
	}
}

// cellRow matches one row of the cells table and captures its cell,
// cycles and total replays.
var cellRow = regexp.MustCompile(`(?m)^(\S+#\d+)\s+\S+\s+\S+\s+(\d+)\s+(\d+)\s`)

func TestCellsMatchSweepRun(t *testing.T) {
	code, out, errOut := runCLI(t, "-exp", "cells", "-spec", specFile)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var got []string
	for _, m := range cellRow.FindAllStringSubmatch(out, -1) {
		got = append(got, strings.Join(m[1:], " "))
	}

	f, err := os.Open(specFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := specsched.DecodeSweepSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := specsched.NewSweepFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range cells {
		want = append(want, fmt.Sprintf("%s %d %d", c.CellRef, c.Run.Cycles, c.Run.Replayed()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cells rows (cell, cycles, replays):\n%s\nwant (Sweep.Run, grid order):\n%s\nfull output:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), out)
	}
}

// TestIgnoredInputsExit2: arguments the command would otherwise drop
// silently are usage errors, reported before anything runs.
func TestIgnoredInputsExit2(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "table2", "extra", "-workloads", "gzip", "-measure", "2000"}, `unexpected argument "extra"`},
		{[]string{"-spec", specFile, "-measure", "2000"}, "drop -measure"},
		{[]string{"-spec", specFile, "-workloads", "gzip", "-seeds", "3", "-dump"}, "drop -seeds -workloads"},
	} {
		code, out, errOut := runCLI(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.wantErr) || !strings.Contains(errOut, "Usage") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, usage and %q",
				tc.args, code, out, errOut, tc.wantErr)
		}
	}
	// Flags that do not describe the sweep still combine with -spec.
	if code, _, errOut := runCLI(t, "-spec", specFile, "-progress", "-dump"); code != 0 {
		t.Errorf("-spec -progress -dump: exit %d: %s", code, errOut)
	}
}

// TestJobsLine: the summary reports the concurrency the pool runs at,
// which follows -workers when -jobs is unset.
func TestJobsLine(t *testing.T) {
	base := []string{"-exp", "cells", "-configs", "Baseline_0", "-workloads", "gzip", "-warmup", "500", "-measure", "2000"}
	for _, tc := range []struct {
		args []string
		jobs int
	}{
		{nil, runtime.GOMAXPROCS(0)},
		{[]string{"-jobs", "3"}, 3},
		{[]string{"-workers", "1"}, 1},
		{[]string{"-workers", "1", "-jobs", "2"}, 2},
	} {
		code, out, errOut := runCLI(t, append(base, tc.args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut)
		}
		if want := fmt.Sprintf("jobs=%d)", tc.jobs); !strings.Contains(out, want) {
			t.Errorf("%v: summary lacks %q:\n%s", tc.args, want, out)
		}
	}
}
