// Cell-execution path: nodeterm's determinism rules apply — DedupKey
// equality promises bit-identical results, which only holds if nothing
// here depends on wall clock, global RNG, or map order.

//specsched:determinism
package sim

import (
	"container/list"
	"context"
	"strconv"
	"sync"

	"specsched/internal/stats"
)

// DedupKey returns the cross-sweep identity of one cell's result: the full
// configuration digest, the workload's content fingerprint (its profile
// identity, or the recorded trace's digest/count/wrong-path seed), the
// seed-replica index, and the simulation window. Two cells with equal keys
// provably produce bit-identical runs — the deterministic per-cell seeding
// (DeriveSeed) is a pure function of exactly these inputs — so a result
// computed for one sweep can be handed to every other sweep asking for the
// same key. It is the key of DedupCache and of the service layer's
// cross-job dedup and result cache.
//
// The key reads "<digest %016x>\x00<workload>\x00<seed>\x00<warmup>\x00<measure>",
// the workload being "profile:<name>" or
// "trace:<name>/<trace digest %016x>/<count>/<wrong-path seed>".
func DedupKey(c Cell, warmup, measure int64, traces TraceSet) string {
	var buf [128]byte // key bytes stay on the stack; string() makes the one copy
	b := buf[:0]
	b = appendHex16(b, c.Config.Digest())
	if tr, ok := traces[c.Workload]; ok {
		b = append(b, "\x00trace:"...)
		b = append(b, c.Workload...)
		b = append(b, '/')
		b = appendHex16(b, tr.Header.Digest)
		b = append(b, '/')
		b = strconv.AppendInt(b, tr.Header.Count, 10)
		b = append(b, '/')
		b = strconv.AppendUint(b, tr.Header.WrongPathSeed, 10)
	} else {
		b = append(b, "\x00profile:"...)
		b = append(b, c.Workload...)
	}
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(c.SeedIdx), 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, warmup, 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, measure, 10)
	return string(b)
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits (%016x).
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// DedupSource says how a DedupCache.Do call obtained its result.
type DedupSource uint8

const (
	// DedupExecuted: this caller ran the cell function itself.
	DedupExecuted DedupSource = iota
	// DedupShared: another in-flight caller ran it; we received its result.
	DedupShared
	// DedupHit: the result was already in the LRU cache.
	DedupHit
)

// DedupCache combines a single-flight table with an LRU result cache so
// that identical cells requested by any number of concurrent sweeps run
// exactly once: the first caller of a key executes, concurrent callers of
// the same key wait and share the result, and later callers are served
// from the LRU until the entry is evicted. Failed executions are never
// cached — and a waiter whose flight owner failed (or was canceled) retries
// the key itself rather than inheriting a foreign error, so one job's
// cancellation can never fail another job's cell.
//
// Stored runs are shared between callers: treat them as immutable, copy
// before mutating (the same contract as Checkpoint.Lookup).
type DedupCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // key → LRU element holding *dedupEntry
	order    *list.List               // front = most recent
	flights  map[string]*flight

	hits, shared, executed int64
}

type dedupEntry struct {
	key string
	run *stats.Run
}

// flight is one in-progress execution; waiters block on done. run/err are
// written once, before done is closed, and read-only afterwards.
type flight struct {
	done chan struct{}
	run  *stats.Run
	err  error
}

// DefaultDedupEntries is the LRU capacity NewDedupCache applies when the
// caller passes a non-positive one. At a few hundred bytes per stats.Run,
// the default keeps the cache's working set in the low megabytes.
const DefaultDedupEntries = 4096

// NewDedupCache returns a cache bounded to capacity result entries
// (capacity <= 0 selects DefaultDedupEntries).
func NewDedupCache(capacity int) *DedupCache {
	if capacity <= 0 {
		capacity = DefaultDedupEntries
	}
	return &DedupCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		flights:  make(map[string]*flight),
	}
}

// DedupStats is a point-in-time snapshot of a DedupCache's counters.
type DedupStats struct {
	// Hits counts calls served from the LRU; Shared counts calls that
	// waited on another caller's in-flight execution; Executed counts
	// calls that ran the cell function themselves.
	Hits, Shared, Executed int64
	// Entries is the current LRU size.
	Entries int
}

// Stats snapshots the cache counters.
func (d *DedupCache) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DedupStats{Hits: d.hits, Shared: d.shared, Executed: d.executed, Entries: d.order.Len()}
}

// Do returns the result for key, executing fn at most once across all
// concurrent callers of the same key and serving repeat calls from the
// LRU. The returned source says which path served the call. A ctx
// canceled while waiting on another caller's flight returns the
// cancellation cause without waiting further; fn itself must honor ctx
// (and must not panic — the pool's per-attempt recovery runs inside fn).
func (d *DedupCache) Do(ctx context.Context, key string, fn func() (*stats.Run, error)) (*stats.Run, DedupSource, error) {
	for {
		d.mu.Lock()
		if e, ok := d.entries[key]; ok {
			d.order.MoveToFront(e)
			run := e.Value.(*dedupEntry).run
			d.hits++
			d.mu.Unlock()
			return run, DedupHit, nil
		}
		if f, ok := d.flights[key]; ok {
			d.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, DedupShared, context.Cause(ctx)
			case <-f.done:
			}
			if f.err == nil && f.run != nil {
				d.mu.Lock()
				d.shared++
				d.mu.Unlock()
				return f.run, DedupShared, nil
			}
			// The owner failed or was canceled. Its error may be specific
			// to its sweep (cancellation, chaos injection, its own retry
			// budget), so do not inherit it: loop and run — or wait on a
			// newer flight — ourselves.
			continue
		}
		f := &flight{done: make(chan struct{})}
		d.flights[key] = f
		d.executed++
		d.mu.Unlock()

		func() {
			defer func() {
				d.mu.Lock()
				delete(d.flights, key)
				if f.err == nil && f.run != nil {
					d.store(key, f.run)
				}
				d.mu.Unlock()
				close(f.done) // waiters read f only after this
			}()
			f.run, f.err = fn()
		}()
		return f.run, DedupExecuted, f.err
	}
}

// store inserts (or refreshes) key under the LRU bound. Callers hold d.mu.
func (d *DedupCache) store(key string, run *stats.Run) {
	if e, ok := d.entries[key]; ok {
		e.Value.(*dedupEntry).run = run
		d.order.MoveToFront(e)
		return
	}
	d.entries[key] = d.order.PushFront(&dedupEntry{key: key, run: run})
	for d.order.Len() > d.capacity {
		oldest := d.order.Back()
		d.order.Remove(oldest)
		delete(d.entries, oldest.Value.(*dedupEntry).key)
	}
}
