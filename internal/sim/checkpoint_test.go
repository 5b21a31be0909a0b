package sim

// Checkpoint durability suite: LoadCheckpoint failure paths (truncation,
// garbage, retired schema, damaged records), salvage, .bak fallback, and
// the end-to-end torn-write → resume acceptance property.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specsched/internal/faultinject"
	"specsched/internal/stats"
)

const ckptTestFP = "warmup=1,measure=2,sched=event"

// writeFullCheckpoint runs every cell through a checkpointed pool and
// flushes, returning the cells and the on-disk bytes.
func writeFullCheckpoint(t *testing.T, path string) ([]Cell, []byte) {
	t.Helper()
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	(&Pool{Jobs: 4, Checkpoint: cp}).RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return cells, data
}

// lookupAll returns how many of the cells a checkpoint serves, verifying
// every hit is bit-identical to the expected run.
func lookupAll(t *testing.T, cp *Checkpoint, cells []Cell) int {
	t.Helper()
	hits := 0
	for _, c := range cells {
		run, ok := cp.Lookup(c)
		if !ok {
			continue
		}
		want, _ := fakeRun(c)
		if *run != *want {
			t.Fatalf("cell %s: salvaged run differs from the recorded one", c)
		}
		hits++
	}
	return hits
}

func TestLoadCheckpointTruncated(t *testing.T) {
	dir := t.TempDir()
	cells, data := writeFullCheckpoint(t, filepath.Join(dir, "full.ckpt"))
	headerEnd := bytes.IndexByte(data, '\n') + 1

	for _, cut := range []int{headerEnd, headerEnd + 10, len(data) / 2, len(data) - 2} {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.ckpt", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path, ckptTestFP)
		if err != nil {
			t.Fatalf("cut=%d: truncated checkpoint must salvage, not error: %v", cut, err)
		}
		if cp.Salvage() == nil {
			t.Fatalf("cut=%d: no salvage report for a truncated file", cut)
		}
		hits := lookupAll(t, cp, cells)
		if hits != cp.Len() {
			t.Fatalf("cut=%d: %d lookups hit but Len()=%d", cut, hits, cp.Len())
		}
		if cut == len(data)-2 && cp.Len() < len(cells)-1 {
			t.Fatalf("cut=%d: lost %d cells to a 2-byte truncation", cut, len(cells)-cp.Len())
		}
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(path, []byte("this is not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, ckptTestFP); err == nil {
		t.Fatal("foreign file accepted as a checkpoint")
	}
}

func TestLoadCheckpointEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ckpt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatalf("empty checkpoint (crash before first write) must restart, not error: %v", err)
	}
	if cp.Len() != 0 || cp.Salvage() == nil {
		t.Fatalf("Len=%d Salvage=%v, want an empty salvaged restart", cp.Len(), cp.Salvage())
	}
}

func TestLoadCheckpointRetiredV1Schema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	body := `{"schema":"specsched-sweep-checkpoint/v1","fingerprint":"` + ckptTestFP + `","cells":{}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path, ckptTestFP)
	if err == nil || !strings.Contains(err.Error(), "retired schema") {
		t.Fatalf("v1 checkpoint error = %v, want a retired-schema rejection", err)
	}
}

func TestLoadCheckpointWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v9.ckpt")
	body := `H {"schema":"specsched-sweep-checkpoint/v9","fingerprint":"` + ckptTestFP + "\"}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path, ckptTestFP)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema error = %v", err)
	}
}

// TestLoadCheckpointDamagedRecords: a record whose digest no longer
// matches, and a digest-valid record whose payload is not JSON, are each
// dropped alone — every other record loads.
func TestLoadCheckpointDamagedRecords(t *testing.T) {
	dir := t.TempDir()
	cells, data := writeFullCheckpoint(t, filepath.Join(dir, "full.ckpt"))
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("unexpectedly small checkpoint: %d lines", len(lines))
	}

	// Flip one byte inside the JSON payload of the second record.
	corrupted := []byte(lines[2])
	corrupted[len(corrupted)-5] ^= 0xa5
	lines[2] = string(corrupted)

	// Replace the third record with a digest-valid but non-JSON payload.
	bogus := "definitely not json"
	lines[3] = fmt.Sprintf("C %016x %s", fnvSum([]byte(bogus)), bogus)

	path := filepath.Join(dir, "damaged.ckpt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatalf("damaged records must salvage, not error: %v", err)
	}
	rep := cp.Salvage()
	if rep == nil {
		t.Fatal("no salvage report")
	}
	if rep.DroppedLines != 2 {
		t.Fatalf("DroppedLines = %d, want 2", rep.DroppedLines)
	}
	if cp.Len() != len(cells)-2 {
		t.Fatalf("Len = %d, want %d (two records dropped)", cp.Len(), len(cells)-2)
	}
	lookupAll(t, cp, cells)
}

// TestCheckpointBakFallback: the primary vanishing entirely (crash in the
// rotate→rename window, or operator damage) falls back to the .bak
// generation.
func TestCheckpointBakFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cells, _ := writeFullCheckpoint(t, path) // 12 cells → two auto-flush generations
	if _, err := os.Stat(path + bakSuffix); err != nil {
		t.Fatalf("no .bak rotation after multiple flushes: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatalf("missing primary with intact .bak must salvage: %v", err)
	}
	rep := cp.Salvage()
	if rep == nil || rep.BackupCells == 0 || rep.BackupCells != cp.Len() {
		t.Fatalf("salvage = %+v with Len %d, want every cell from .bak", rep, cp.Len())
	}
	if hits := lookupAll(t, cp, cells); hits != cp.Len() {
		t.Fatalf("%d lookups hit, Len %d", hits, cp.Len())
	}
}

// TestChaosTornWriteSalvageResume is the torn-write acceptance property: a
// checkpoint whose every flush is injected torn (truncated body, no fsync)
// still resumes — LoadCheckpoint recovers every digest-valid record from
// the torn primary plus the previous generation, the resumed sweep
// re-simulates only what was lost, and the merged results are
// bit-identical to a fault-free sweep.
func TestChaosTornWriteSalvageResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim", "applu"}, 2)
	clean := (&Pool{Jobs: 4}).RunWith(context.Background(), cells, RunnerFunc(fakeCell))

	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	cp.SetChaos(&faultinject.Plan{TornWriteRate: 1}) // every flush crashes mid-write
	(&Pool{Jobs: 4, Checkpoint: cp}).RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	cp.Flush()

	cp2, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatalf("torn checkpoint must salvage, not error: %v", err)
	}
	rep := cp2.Salvage()
	if rep == nil {
		t.Fatal("no salvage report after torn writes")
	}
	if cp2.Len() == 0 {
		t.Fatal("salvage recovered nothing from a torn checkpoint")
	}
	salvaged := lookupAll(t, cp2, cells)
	if salvaged != cp2.Len() {
		t.Fatalf("%d lookups hit but Len()=%d", salvaged, cp2.Len())
	}
	t.Logf("salvage: %s", rep)

	// Resume without chaos: exactly the lost cells re-simulate, and the
	// merged sweep is bit-identical to the fault-free run.
	var simulated atomic.Int64
	res := (&Pool{Jobs: 4, Checkpoint: cp2}).RunWith(context.Background(), cells,
		RunnerFunc(func(_ context.Context, c Cell) (*stats.Run, error) { simulated.Add(1); return fakeRun(c) }))
	if int(simulated.Load()) != len(cells)-salvaged {
		t.Fatalf("resume simulated %d cells, want %d (total %d - salvaged %d)",
			simulated.Load(), len(cells)-salvaged, len(cells), salvaged)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %s failed on resume: %v", r.Cell, r.Err)
		}
		if *r.Run != *clean[i].Run {
			t.Fatalf("cell %s: resumed run diverged from fault-free run", r.Cell)
		}
	}

	// The resume marks salvaged state dirty: the next flush writes a clean
	// generation and a third load is pristine.
	if err := cp2.Flush(); err != nil {
		t.Fatal(err)
	}
	cp3, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.Salvage() != nil || cp3.Len() != len(cells) {
		t.Fatalf("post-resume load: salvage=%v Len=%d, want clean with all %d cells",
			cp3.Salvage(), cp3.Len(), len(cells))
	}
}

// TestCheckpointForeignFingerprintBakIgnored: the .bak fallback still
// enforces the fingerprint — a torn primary plus a foreign-sweep .bak
// salvages only the primary's records.
func TestCheckpointForeignFingerprintBakIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	_, data := writeFullCheckpoint(t, path)

	// Rewrite the .bak as a checkpoint of a different sweep.
	other, err := LoadCheckpoint(filepath.Join(dir, "other.ckpt"), "warmup=9,measure=9,sched=event")
	if err != nil {
		t.Fatal(err)
	}
	otherCells := testGrid(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	(&Pool{Jobs: 1, Checkpoint: other}).RunWith(context.Background(), otherCells, RunnerFunc(fakeCell))
	if err := other.Flush(); err != nil {
		t.Fatal(err)
	}
	foreign, err := os.ReadFile(filepath.Join(dir, "other.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+bakSuffix, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	// Tear the primary so the load takes the salvage path.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Salvage()
	if rep == nil || rep.BackupCells != 0 {
		t.Fatalf("salvage = %+v, want zero cells from the foreign .bak", rep)
	}
}

// TestCheckpointConcurrentRecordFlush: Record never holds the cell-map
// lock across marshal+I/O, so concurrent Record/Lookup traffic during
// flushes is safe (the -race build is the assertion here) and nothing is
// lost.
func TestCheckpointConcurrentRecordFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim", "applu"}, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += 8 {
				run, _ := fakeRun(cells[i])
				cp.Record(cells[i], run)
				cp.Lookup(cells[i])
			}
		}(w)
	}
	wg.Wait()
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Salvage() != nil || cp2.Len() != len(cells) {
		t.Fatalf("reload: salvage=%v Len=%d, want clean %d", cp2.Salvage(), cp2.Len(), len(cells))
	}
}

// TestCheckpointFlushErrorSurfaced: a flush that cannot write (directory
// gone) is reported by Flush, not swallowed.
func TestCheckpointFlushErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "gone")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(filepath.Join(sub, "sweep.ckpt"), ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0"}, []string{"gzip"}, 1)
	run, _ := fakeRun(cells[0])
	cp.Record(cells[0], run)
	if err := os.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err == nil {
		t.Fatal("Flush into a removed directory reported success")
	}
}
