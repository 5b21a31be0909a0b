package specsched_test

import (
	"sync"
	"testing"

	"specsched"
	"specsched/results"
)

// TestSweepCellCacheDedup is the cross-sweep dedup contract: two sweeps
// sharing a CellCache produce cells bit-identical to an uncached run,
// while the second sweep simulates nothing — every cell is served from
// the cache and marked Deduped.
func TestSweepCellCacheDedup(t *testing.T) {
	baseline, err := mustSweep(t, gridSpec()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cache := specsched.NewCellCache(0)
	first, err := mustSweep(t, gridSpec(), specsched.SweepCellCache(cache)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mustSweep(t, gridSpec(), specsched.SweepCellCache(cache)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []specsched.Cell, wantDeduped bool) {
		t.Helper()
		if len(got) != len(baseline) {
			t.Fatalf("%s sweep: %d cells, want %d", name, len(got), len(baseline))
		}
		for i := range baseline {
			a, b := baseline[i], got[i]
			if a.CellRef != b.CellRef {
				t.Fatalf("%s sweep: cell order diverged at %d: %s vs %s", name, i, a.CellRef, b.CellRef)
			}
			ar, br := a.Run, b.Run
			ar.Elapsed, br.Elapsed = 0, 0
			if ar != br {
				t.Fatalf("%s sweep: cell %s not bit-identical to uncached run", name, a.CellRef)
			}
			if b.Deduped != wantDeduped {
				t.Fatalf("%s sweep: cell %s Deduped = %v, want %v", name, b.CellRef, b.Deduped, wantDeduped)
			}
		}
	}
	check("first", first, false)
	check("second", second, true)

	st := cache.Stats()
	if st.Simulated != int64(len(baseline)) {
		t.Fatalf("cache simulated %d cells, want %d (one per distinct cell)", st.Simulated, len(baseline))
	}
	if st.Hits+st.Deduped != int64(len(baseline)) {
		t.Fatalf("cache saved %d+%d cells, want %d", st.Hits, st.Deduped, len(baseline))
	}
	if st.Entries == 0 {
		t.Fatal("cache retained nothing")
	}
}

// TestSweepCellCacheConcurrent: two sweeps over the same grid racing on
// one cache still simulate each distinct cell exactly once between them,
// and both arrive at the uncached results. This is the daemon's
// concurrent-jobs scenario in miniature.
func TestSweepCellCacheConcurrent(t *testing.T) {
	baseline, err := mustSweep(t, gridSpec()).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cache := specsched.NewCellCache(0)
	runs := make([][]specsched.Cell, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range runs {
		sweep := mustSweep(t, gridSpec(), specsched.SweepCellCache(cache))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = sweep.Run(ctx)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	for _, cells := range runs {
		for i := range baseline {
			a, b := baseline[i].Run, cells[i].Run
			a.Elapsed, b.Elapsed = 0, 0
			if baseline[i].CellRef != cells[i].CellRef || a != b {
				t.Fatalf("racing sweeps diverged from the uncached run at %s", baseline[i].CellRef)
			}
		}
	}
	st := cache.Stats()
	if st.Simulated != int64(len(baseline)) {
		t.Fatalf("racing sweeps simulated %d cells, want exactly %d", st.Simulated, len(baseline))
	}
	if st.Hits+st.Deduped != int64(len(baseline)) {
		t.Fatalf("dedup saved %d+%d cells, want %d", st.Hits, st.Deduped, len(baseline))
	}
}

// TestFailureReportConcurrentWithResults exercises the documented
// concurrency guarantee under the race detector: FailureReport (and
// Spec) hammered from other goroutines while Results streams.
func TestFailureReportConcurrentWithResults(t *testing.T) {
	spec := gridSpec()
	spec.Retries = 2
	sweep := mustSweep(t, spec)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fr := sweep.FailureReport()
				if fr.Retries < 0 {
					t.Error("impossible retry count")
					return
				}
				_ = sweep.Spec()
			}
		}()
	}

	var streamed []results.Run
	for cell, cerr := range sweep.Results(ctx) {
		if cerr != nil {
			t.Errorf("cell %s: %v", cell.CellRef, cerr)
		}
		streamed = append(streamed, cell.Run)
	}
	close(stop)
	wg.Wait()
	if len(streamed) != 8 {
		t.Fatalf("streamed %d cells, want 8", len(streamed))
	}
	if fr := sweep.FailureReport(); len(fr.Failed) != 0 {
		t.Fatalf("unexpected failures: %+v", fr.Failed)
	}
}
