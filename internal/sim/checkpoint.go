package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"specsched/internal/faultinject"
	"specsched/internal/stats"
)

// checkpointSchema versions the on-disk format; bump on incompatible
// change. v3 is an append-only log: a header line, then one record line
// per recorded cell, in Record order, each carrying its own FNV-64a
// digest. A torn or truncated tail is detected record by record, and every
// intact record before or after it is still recoverable (see
// LoadCheckpoint).
const checkpointSchema = "specsched-sweep-checkpoint/v3"

// retiredSchemas are recognized only to reject them with a clear message:
// v1 was one JSON object, v2 the whole-file-rewrite format with a trailer.
var retiredSchemas = []string{"specsched-sweep-checkpoint/v1", "specsched-sweep-checkpoint/v2"}

// flushEvery is how many newly recorded cells trigger an automatic flush.
// Cells run for seconds, so an 8-cell granularity keeps the at-most-lost
// work on an interrupt small without a disk sync per cell.
const flushEvery = 8

// Checkpoint persists completed cells of a sweep so an interrupted run can
// resume. The file carries a fingerprint of the sweep-wide options
// (warmup, measure, scheduler implementation) and a per-cell digest of the
// full configuration; a lookup only hits when both match, so stale or
// foreign checkpoints can never contaminate results.
//
// Durability: a flush appends the pending records at the end of the
// durable prefix and fsyncs the file; it never rewrites a byte already
// flushed. Only the two whole-file writes — creating the file, and the
// first flush after a salvaging load — go through a temp file, fsync,
// rename and directory fsync. Record and Lookup never block on a flush:
// marshaling and I/O happen outside the cell-map lock.
type Checkpoint struct {
	path        string
	fingerprint string

	// mu guards the in-memory state only; it is never held across
	// marshaling or I/O.
	mu      sync.Mutex
	cells   map[string]checkpointEntry
	pending []checkpointRecord // recorded, not yet durable, in Record order
	records int                // position the next Record takes
	saveErr error

	// flushMu serializes whole flushes so two concurrent flush triggers
	// cannot interleave their writes. It guards size and flushes.
	flushMu sync.Mutex
	// size is the length of the durable prefix; 0 means no usable file
	// yet, so the next flush writes the whole file.
	size    int64
	flushes int

	// chaos, when set, lets a fault plan tear individual flushes (a
	// prefix of the batch, no fsync) — the reproducible stand-in for a
	// crash mid-write.
	chaos *faultinject.Plan

	salvage *SalvageReport
}

// SalvageReport describes what a non-clean LoadCheckpoint recovered.
type SalvageReport struct {
	// Cells counts the digest-valid records recovered.
	Cells int
	// DroppedLines counts damaged record lines skipped.
	DroppedLines int
}

func (s *SalvageReport) String() string {
	return fmt.Sprintf("salvaged %d cells (%d damaged lines dropped)", s.Cells, s.DroppedLines)
}

// Salvage returns a report when LoadCheckpoint had to recover this
// checkpoint from a torn, truncated or damaged file, and nil after a
// clean load. Callers use it to tell the user a crash was absorbed.
func (c *Checkpoint) Salvage() *SalvageReport { return c.salvage }

// SetChaos installs a fault plan whose Torn schedule tears matching
// flushes. Test/chaos hook; nil disables.
func (c *Checkpoint) SetChaos(p *faultinject.Plan) { c.chaos = p }

type checkpointEntry struct {
	// Digest is the cell's config.CoreConfig.Digest() — the guard against
	// a config whose name stayed the same while its contents changed.
	Digest uint64     `json:"config_digest"`
	Run    *stats.Run `json:"run"`
	// pos is the record's position in the log: the order it was recorded.
	pos int
}

// checkpointHeader is the H line payload.
type checkpointHeader struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
}

// checkpointRecord is the C line payload.
type checkpointRecord struct {
	Key string `json:"key"`
	checkpointEntry
}

// fnvSum is FNV-64a over b, the record digest function.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// LoadCheckpoint opens the checkpoint at path; a missing file is an empty
// checkpoint, created by the first flush. A file written under a different
// fingerprint or schema is an error: resuming it would silently mix
// results from different sweep options. A torn, truncated, or otherwise
// damaged file is NOT an error: every record whose own digest still
// verifies is recovered, Salvage reports what happened, and the first
// flush rewrites the recovered records clean, in their original order — an
// interrupted sweep resumes with everything provably intact instead of
// refusing outright.
func LoadCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, fingerprint: fingerprint, cells: map[string]checkpointEntry{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", path, err)
	}
	clean, dropped, err := c.parse(data)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", path, err)
	}
	if clean {
		c.size = int64(len(data))
		return c, nil
	}
	c.salvage = &SalvageReport{Cells: len(c.cells), DroppedLines: dropped}
	for k, e := range c.cells {
		c.pending = append(c.pending, checkpointRecord{Key: k, checkpointEntry: e})
	}
	slices.SortFunc(c.pending, func(a, b checkpointRecord) int { return a.pos - b.pos })
	return c, nil
}

// parse loads data's records into c. Hard errors are a wrong or retired
// schema and a foreign fingerprint. Damage (an empty file, a torn tail,
// bad record digests) is not an error: the records that verify load, and
// clean reports false. A clean file is a header and complete, verified
// records, so appending to it keeps it clean.
func (c *Checkpoint) parse(data []byte) (clean bool, dropped int, err error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return false, 0, nil // a crash before the first write completed
	}
	notCheckpoint := fmt.Errorf("not a %s file", checkpointSchema)
	// A v1 checkpoint was one indented JSON object; give it a precise
	// rejection instead of a salvage attempt on a foreign format.
	if data[0] == '{' {
		var v1 checkpointHeader
		if json.Unmarshal(data, &v1) == nil && v1.Schema == retiredSchemas[0] {
			return false, 0, retiredErr(v1.Schema)
		}
		return false, 0, notCheckpoint
	}

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	sc.Scan()
	hdrJSON, ok := strings.CutPrefix(sc.Text(), "H ")
	if !ok {
		return false, 0, notCheckpoint
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(hdrJSON), &hdr); err != nil {
		return false, 0, fmt.Errorf("unreadable header: %v", err)
	}
	switch {
	case slices.Contains(retiredSchemas, hdr.Schema):
		return false, 0, retiredErr(hdr.Schema)
	case hdr.Schema != checkpointSchema:
		return false, 0, fmt.Errorf("schema %q, want %q", hdr.Schema, checkpointSchema)
	case hdr.Fingerprint != c.fingerprint:
		return false, 0, fmt.Errorf("written for different sweep options (%s; this sweep: %s) — delete it or point -resume elsewhere",
			hdr.Fingerprint, c.fingerprint)
	}

	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, ok := parseRecord(line)
		if !ok {
			dropped++ // torn mid-line, bit-flipped, or foreign garbage
			continue
		}
		rec.pos = c.records
		c.records++
		c.cells[rec.Key] = rec.checkpointEntry // a later record of a key wins
	}
	if sc.Err() != nil {
		dropped++ // an over-long line: the rest of the file is unreadable
	}
	return dropped == 0 && data[len(data)-1] == '\n', dropped, nil
}

// parseRecord decodes one "C <digest> <json>" line, reporting false
// unless the payload matches its digest and holds a run.
func parseRecord(line string) (checkpointRecord, bool) {
	var rec checkpointRecord
	rest, ok := strings.CutPrefix(line, "C ")
	if !ok {
		return rec, false
	}
	sum, payload, ok := strings.Cut(rest, " ")
	if want, err := strconv.ParseUint(sum, 16, 64); !ok || err != nil || fnvSum([]byte(payload)) != want {
		return rec, false
	}
	if json.Unmarshal([]byte(payload), &rec) != nil || rec.Run == nil {
		return rec, false
	}
	return rec, true
}

// retiredErr rejects a checkpoint written in a retired schema.
func retiredErr(schema string) error {
	return fmt.Errorf("uses retired schema %q (want %q) — delete it or point -resume elsewhere", schema, checkpointSchema)
}

// Len returns the number of completed cells on record.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Lookup returns the recorded run for a cell, if one exists with a
// matching configuration digest. The returned Run is shared with the
// checkpoint: callers must copy before mutating.
func (c *Checkpoint) Lookup(cell Cell) (*stats.Run, bool) {
	run, _, ok := c.lookup(cell)
	return run, ok
}

// lookup is Lookup plus the record's position in the log, which orders
// checkpoint hits the way they were recorded.
func (c *Checkpoint) lookup(cell Cell) (*stats.Run, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cells[cell.Key()]
	if !ok || e.Digest != cell.Config.Digest() || e.Run == nil {
		return nil, 0, false
	}
	return e.Run, e.pos, true
}

// Record stores a completed cell and flushes to disk every flushEvery
// pending cells. The flush happens outside the cell-map lock, so
// concurrent Record/Lookup calls from other workers never wait on
// marshaling or disk I/O. Write errors are retained and surfaced by the
// next Flush.
func (c *Checkpoint) Record(cell Cell, run *stats.Run) {
	c.mu.Lock()
	rec := checkpointRecord{Key: cell.Key(), checkpointEntry: checkpointEntry{Digest: cell.Config.Digest(), Run: run, pos: c.records}}
	c.records++
	c.cells[rec.Key] = rec.checkpointEntry
	c.pending = append(c.pending, rec)
	trigger := len(c.pending) >= flushEvery
	c.mu.Unlock()
	if trigger {
		if err := c.flush(); err != nil {
			c.mu.Lock()
			if c.saveErr == nil {
				c.saveErr = err
			}
			c.mu.Unlock()
		}
	}
}

// Flush writes any unsaved cells to disk and reports the first write error
// encountered since the previous Flush.
func (c *Checkpoint) Flush() error {
	ferr := c.flush()
	c.mu.Lock()
	err := c.saveErr
	c.saveErr = nil
	c.mu.Unlock()
	if err == nil {
		err = ferr
	}
	return err
}

// flush makes the pending records durable: it appends them, in Record
// order, at the end of the durable prefix and fsyncs, or — when there is
// no usable file yet — writes the header and them as a whole new file.
// A torn flush (chaos) writes the header, if any, and a prefix of the
// batch without fsync, and leaves the batch pending, so the next flush
// writes over the torn tail.
func (c *Checkpoint) flush() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()

	c.mu.Lock()
	batch := c.pending
	c.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if c.size == 0 {
		hdr, _ := json.Marshal(checkpointHeader{Schema: checkpointSchema, Fingerprint: c.fingerprint}) // two strings: cannot fail
		fmt.Fprintf(&buf, "H %s\n", hdr)
	}
	head := buf.Len()
	for _, rec := range batch {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("sim: checkpoint %s: %w", c.path, err)
		}
		fmt.Fprintf(&buf, "C %016x %s\n", fnvSum(payload), payload)
	}
	data := buf.Bytes()
	torn := c.chaos.Torn(c.flushes)
	c.flushes++
	if torn {
		data = data[:head+(len(data)-head)*2/3]
	}

	var err error
	if c.size == 0 {
		err = c.create(data, torn)
	} else {
		err = c.extend(data, torn)
	}
	if err != nil {
		return fmt.Errorf("sim: checkpoint %s: %w", c.path, err)
	}
	if torn {
		return nil
	}
	c.size += int64(len(data))
	c.mu.Lock()
	c.pending = c.pending[len(batch):]
	c.mu.Unlock()
	return nil
}

// create writes data as the whole file: temp file, fsync, rename into
// place, fsync the directory — the crash-ordering chain that guarantees
// rename never publishes un-synced data. A torn write skips the syncs.
func (c *Checkpoint) create(data []byte, torn bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(c.path), filepath.Base(c.path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && !torn {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path)
	}
	if err == nil && !torn {
		err = syncDir(filepath.Dir(c.path))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// extend writes data at the end of the durable prefix and fsyncs. It
// first truncates the file to that prefix, so whatever a torn or failed
// flush left beyond it is overwritten, never extended. The file is opened
// per flush: a checkpoint holds no descriptor between flushes.
func (c *Checkpoint) extend(data []byte, torn bool) error {
	f, err := os.OpenFile(c.path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(c.size)
	if err == nil {
		_, err = f.WriteAt(data, c.size)
	}
	if err == nil && !torn {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
