package sim

// Checkpoint durability suite: LoadCheckpoint failure paths (truncation,
// garbage, retired schemas, damaged records), salvage, the append-only
// log (a flush only ever appends its batch; a torn flush is overwritten by
// the next), and the end-to-end torn-write → resume acceptance property.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specsched/internal/config"
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
		if cut == headerEnd {
			// A header alone is a complete log with no records yet.
			if cp.Salvage() != nil || cp.Len() != 0 {
				t.Fatalf("header-only file: salvage=%v Len=%d, want a clean empty log", cp.Salvage(), cp.Len())
			}
			continue
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

// TestLoadCheckpointRetiredV1Schema: a v1 (one JSON object) and a v2
// (whole-file rewrite with a trailer) checkpoint are each rejected as
// retired, not salvaged.
func TestLoadCheckpointRetiredV1Schema(t *testing.T) {
	for name, body := range map[string]string{
		"v1": `{"schema":"specsched-sweep-checkpoint/v1","fingerprint":"` + ckptTestFP + `","cells":{}}`,
		"v2": `H {"schema":"specsched-sweep-checkpoint/v2","fingerprint":"` + ckptTestFP + "\"}\nT 0 cbf29ce484222325\n",
	} {
		path := filepath.Join(t.TempDir(), name+".ckpt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path, ckptTestFP)
		if err == nil || !strings.Contains(err.Error(), "retired schema") || !strings.Contains(err.Error(), "point -resume elsewhere") {
			t.Fatalf("%s checkpoint error = %v, want a retired-schema rejection", name, err)
		}
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

// recordLines parses the "C" lines of a log fragment, failing on any line
// that is not a verified record.
func recordLines(t *testing.T, frag []byte) []checkpointRecord {
	t.Helper()
	var out []checkpointRecord
	for _, line := range strings.SplitAfter(string(frag), "\n") {
		if line == "" {
			continue
		}
		rec, ok := parseRecord(strings.TrimSuffix(line, "\n"))
		if !ok || !strings.HasSuffix(line, "\n") {
			t.Fatalf("not a complete record line: %q", line)
		}
		out = append(out, rec)
	}
	return out
}

// TestCheckpointFlushAppends: every flush after the first leaves each
// earlier byte of the file unchanged and grows it by exactly its batch,
// in Record order; the checkpoint stays one file.
func TestCheckpointFlushAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	var prev []byte
	next := 0
	for _, n := range []int{3, 5, 1, 3} { // below flushEvery: only Flush writes
		batch := cells[next : next+n]
		next += n
		for _, c := range batch {
			run, _ := fakeRun(c)
			cp.Record(c, run)
		}
		if err := cp.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, prev) {
			t.Fatalf("flush of %d records rewrote earlier bytes of the file", n)
		}
		added := data[len(prev):]
		if prev == nil {
			added = added[bytes.IndexByte(added, '\n')+1:] // the header
		}
		recs := recordLines(t, added)
		if len(recs) != n {
			t.Fatalf("flush of %d records appended %d", n, len(recs))
		}
		for i, rec := range recs {
			if rec.Key != batch[i].Key() {
				t.Fatalf("appended record %d is %s, want %s (Record order)", i, rec.Key, batch[i].Key())
			}
		}
		prev = data
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, prev) {
		t.Fatal("a flush with nothing pending changed the file")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("checkpoint directory holds %v, want the one file", names)
	}
	cp2, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Salvage() != nil || lookupAll(t, cp2, cells) != len(cells) {
		t.Fatalf("reload: salvage=%v Len=%d, want clean with all %d cells", cp2.Salvage(), cp2.Len(), len(cells))
	}
}

// TestCheckpointTornFlushOverwritten: a torn flush — the first, which
// creates the file, or a later append — leaves its batch pending, and the
// clean flush after it writes over the torn tail: the reload is clean and
// holds every cell, in Record order.
func TestCheckpointTornFlushOverwritten(t *testing.T) {
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	for tornAt := 0; tornAt < 3; tornAt++ {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		cp, err := LoadCheckpoint(path, ckptTestFP)
		if err != nil {
			t.Fatal(err)
		}
		// Batches of four: a torn flush writes 2/3 of a batch's bytes, so
		// it ends inside its third record.
		for b := 0; b < 3; b++ {
			for _, c := range cells[4*b : 4*b+4] {
				run, _ := fakeRun(c)
				cp.Record(c, run)
			}
			if b == tornAt {
				cp.SetChaos(&faultinject.Plan{TornWriteRate: 1})
			}
			if err := cp.Flush(); err != nil {
				t.Fatal(err)
			}
			cp.SetChaos(nil)
			if b == tornAt {
				// The torn tail is damage to a reader that loads now.
				torn, err := LoadCheckpoint(path, ckptTestFP)
				if err != nil {
					t.Fatalf("torn flush %d: %v", b, err)
				}
				if torn.Salvage() == nil || torn.Len() != 4*b+2 {
					t.Fatalf("torn flush %d: salvage=%v Len=%d, want a salvage of %d cells", b, torn.Salvage(), torn.Len(), 4*b+2)
				}
			}
		}
		if err := cp.Flush(); err != nil { // the torn batch is still pending
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := recordLines(t, data[bytes.IndexByte(data, '\n')+1:])
		if len(recs) != len(cells) {
			t.Fatalf("torn flush %d: file holds %d records, want %d", tornAt, len(recs), len(cells))
		}
		for i, rec := range recs {
			if rec.Key != cells[i].Key() {
				t.Fatalf("torn flush %d: record %d is %s, want %s", tornAt, i, rec.Key, cells[i].Key())
			}
		}
		cp2, err := LoadCheckpoint(path, ckptTestFP)
		if err != nil {
			t.Fatal(err)
		}
		if cp2.Salvage() != nil || lookupAll(t, cp2, cells) != len(cells) {
			t.Fatalf("torn flush %d: reload salvage=%v Len=%d, want clean with all %d cells", tornAt, cp2.Salvage(), cp2.Len(), len(cells))
		}
	}
}

// TestPoolCheckpointHitsInRecordOrder: a pool delivers checkpoint hits in
// the order they were recorded, not grid order, so a resumed sweep
// streams its finished cells in the order it first finished them.
func TestPoolCheckpointHitsInRecordOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid(t, []string{"Baseline_0", "SpecSched_4"}, []string{"gzip", "mcf", "swim"}, 2)
	recorded := slices.Clone(cells[2:])
	slices.Reverse(recorded)
	for _, c := range recorded {
		run, _ := fakeRun(c)
		cp.Record(c, run)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	cp, err = LoadCheckpoint(path, ckptTestFP)
	if err != nil {
		t.Fatal(err)
	}
	var order []Cell
	(&Pool{Jobs: 1, Checkpoint: cp, OnResult: func(_ int, r Result) { order = append(order, r.Cell) }}).
		RunWith(context.Background(), cells, RunnerFunc(fakeCell))
	if want := append(recorded, cells[:2]...); !slices.Equal(order, want) {
		t.Fatalf("delivery order %v, want the recorded cells in Record order, then the fresh ones", order)
	}
}

// TestChaosTornWriteSalvageResume is the torn-write acceptance property: a
// checkpoint whose every flush is injected torn (truncated body, no fsync)
// still resumes — LoadCheckpoint recovers every digest-valid record from
// the torn file, the resumed sweep
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

	// The salvaged records stay pending: the next flush rewrites them clean
	// with the resumed ones, and a third load is pristine.
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

// FuzzLoadCheckpoint writes arbitrary bytes as the checkpoint.
// LoadCheckpoint must never panic, and whatever it accepts must survive a
// Record + Flush: the reload is clean (no salvage) and holds the same
// cells.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg, err := config.Preset("Baseline_0")
	if err != nil {
		f.Fatal(err)
	}
	extra := Cell{Config: cfg, Workload: "fuzz"}
	extraRun, _ := fakeRun(extra)

	// ckptBytes flushes a small checkpoint under fingerprint and returns
	// the file.
	ckptBytes := func(fingerprint string) []byte {
		path := filepath.Join(f.TempDir(), "seed.ckpt")
		cp, err := LoadCheckpoint(path, fingerprint)
		if err != nil {
			f.Fatal(err)
		}
		for i, wl := range []string{"gzip", "mcf", "swim"} {
			c := Cell{Config: cfg, Workload: wl, SeedIdx: i}
			run, _ := fakeRun(c)
			cp.Record(c, run)
		}
		if err := cp.Flush(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	clean := ckptBytes(ckptTestFP)
	torn := append(append([]byte(nil), clean[:len(clean)*2/3]...), "C 0123 {\"key\":"...)
	f.Add(clean)
	f.Add(clean[:len(clean)/2])
	f.Add(torn)
	f.Add([]byte(`{"schema":"specsched-sweep-checkpoint/v1","fingerprint":"` + ckptTestFP + `","cells":{}}`))
	f.Add(ckptBytes("warmup=9,measure=9,sched=event"))
	f.Add(clean[:bytes.IndexByte(clean, '\n')+1]) // header only

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path, ckptTestFP)
		if err != nil {
			return // a hard rejection (foreign, retired or wrong schema) is a valid outcome
		}
		cp.Record(extra, extraRun)
		if err := cp.Flush(); err != nil {
			t.Fatalf("flush after a successful load: %v", err)
		}
		again, err := LoadCheckpoint(path, ckptTestFP)
		if err != nil {
			t.Fatalf("reload of a flushed checkpoint: %v", err)
		}
		if again.Salvage() != nil || again.Len() != cp.Len() {
			t.Fatalf("reload: salvage=%v Len=%d, want a clean load of %d cells", again.Salvage(), again.Len(), cp.Len())
		}
	})
}
