package specsched

import (
	"specsched/internal/sim"
)

// CellCache is a shared, bounded (LRU) cell-result cache with single-flight
// deduplication: sweeps attached to the same cache (SweepCellCache) run
// each distinct cell at most once between them, however many of them ask
// for it and however they overlap in time. A cell's identity is its full
// configuration digest, its workload's content fingerprint (profile
// identity, or recorded-trace digest), its seed index, and the simulation
// window — exactly the inputs the deterministic per-cell seeding derives
// results from, so two cells with equal identity provably produce
// bit-identical runs and sharing is safe.
//
// It is the engine behind the specschedd daemon's cross-job dedup and
// result cache, and is just as usable in-process: a CellCache is safe for
// concurrent use by any number of sweeps.
type CellCache struct {
	d *sim.DedupCache
}

// NewCellCache returns a cache bounded to the given number of cell
// results (entries <= 0 selects a default of a few thousand; a cell
// result is a few hundred bytes).
func NewCellCache(entries int) *CellCache {
	return &CellCache{d: sim.NewDedupCache(entries)}
}

// CellCacheStats is a point-in-time snapshot of a CellCache's counters.
type CellCacheStats struct {
	// Hits counts cells served from the cache's LRU; Deduped counts cells
	// that waited on a concurrent sweep's in-flight execution of the
	// identical cell; Simulated counts cells actually executed through
	// the cache. Hits + Deduped is the simulation work the cache saved.
	Hits, Deduped, Simulated int64
	// Entries is the number of results currently retained.
	Entries int
}

// Stats snapshots the cache counters.
func (c *CellCache) Stats() CellCacheStats {
	s := c.d.Stats()
	return CellCacheStats{Hits: s.Hits, Deduped: s.Shared, Simulated: s.Executed, Entries: s.Entries}
}

// SweepCellCache attaches a shared cell cache to every grid the sweep runs
// (Run, Results and Report): cells another attached sweep already
// computed — or is concurrently computing — are served from the cache,
// marked Deduped, and are not re-simulated. Results are bit-identical
// with or without a cache attached.
func SweepCellCache(c *CellCache) SweepOption {
	return sweepOptionFunc(func(s *Sweep) { s.cellCache = c })
}
