// Package cache implements the data-cache hierarchy of Table 1: a 32 KB
// 8-way L1D with two read ports, eight 8 B quadword-interleaved banks, a
// Rivers-style Single Line Buffer, and 64 MSHRs; and a 1 MB 16-way L2 with
// a degree-8 stride prefetcher. The package exposes timing-level behaviour
// only — no data is stored, since the simulator is trace driven.
//
// The hierarchy is demand-driven: an access computes its fill time when it
// is issued and inserts the line at once, so nothing happens when a fill
// completes. State changes only inside L1D.Load, L1D.Store and L2.Access.
package cache

import "slices"

// MemBackend is the next level of the hierarchy (the L2 below the L1D, the
// DRAM below the L2). Access requests the 64 B line containing addr at CPU
// cycle now and returns the cycle the line is available to the requester.
// pc is the requesting instruction's PC (used by PC-indexed prefetchers);
// write marks stores.
type MemBackend interface {
	Access(addr, pc uint64, now int64, write bool) int64
}

const invalidTag = ^uint64(0)

// Array is a set-associative tag array with true LRU replacement. It tracks
// presence only (trace-driven timing model). Each set keeps its valid lines
// in recency order, most recently used first, and its invalid ways last, so
// the LRU victim (or a free way) is always the set's last way.
type Array struct {
	sets     int
	ways     int
	lineBits uint
	tags     []uint64

	Hits   int64
	Misses int64
}

// NewArray builds a tag array with the given geometry. sizeBytes must be
// ways*lineBytes*2^k for some k >= 0.
func NewArray(sizeBytes, ways, lineBytes int) *Array {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 ||
		sizeBytes%(ways*lineBytes) != 0 {
		panic("cache: invalid geometry")
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	a := &Array{
		sets:     sets,
		ways:     ways,
		lineBits: lineBits,
		tags:     make([]uint64, sets*ways),
	}
	for i := range a.tags {
		a.tags[i] = invalidTag
	}
	return a
}

// SetOf returns the set index addr maps to.
func (a *Array) SetOf(addr uint64) int {
	return int(addr>>a.lineBits) & (a.sets - 1)
}

// LineOf returns the line address (addr with the offset bits stripped).
func (a *Array) LineOf(addr uint64) uint64 { return addr >> a.lineBits }

// set returns the ways of the set addr maps to, most recently used first.
func (a *Array) set(addr uint64) []uint64 {
	base := a.SetOf(addr) * a.ways
	return a.tags[base : base+a.ways : base+a.ways]
}

// find returns the way holding line, or -1.
func find(set []uint64, line uint64) int {
	for w, t := range set {
		if t == line {
			return w
		}
		if t == invalidTag {
			break // invalid ways are last
		}
	}
	return -1
}

// promote makes way w the set's most recently used line, moving the lines
// used more recently than it back one way.
func promote(set []uint64, w int) {
	line := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = line
}

// Lookup probes the array, refreshing LRU state on a hit.
func (a *Array) Lookup(addr uint64) bool {
	set := a.set(addr)
	if w := find(set, a.LineOf(addr)); w >= 0 {
		promote(set, w)
		a.Hits++
		return true
	}
	a.Misses++
	return false
}

// Contains probes without updating LRU or statistics.
func (a *Array) Contains(addr uint64) bool {
	return find(a.set(addr), a.LineOf(addr)) >= 0
}

// Insert fills the line containing addr, evicting the LRU way if the set is
// full. It returns the evicted line address and whether an eviction
// happened. Inserting an already-present line refreshes its LRU state.
func (a *Array) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	line := a.LineOf(addr)
	set := a.set(addr)
	if w := find(set, line); w >= 0 {
		promote(set, w)
		return 0, false
	}
	last := len(set) - 1
	old := set[last]
	set[last] = line
	promote(set, last)
	if old == invalidTag {
		return 0, false
	}
	return old << a.lineBits, true
}

// mshrFile tracks in-flight line fills: line address -> fill-complete cycle.
// It bounds the number of outstanding misses; when full, new misses are
// delayed until the earliest in-flight fill completes. A file holds a few
// dozen entries at most, kept in two parallel slices sized to its capacity,
// so every operation is a short scan that never allocates.
type mshrFile struct {
	lines []uint64
	fills []int64

	FullStalls int64 // accesses delayed by MSHR exhaustion
}

func newMSHRFile(capacity int) *mshrFile {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &mshrFile{
		lines: make([]uint64, 0, capacity),
		fills: make([]int64, 0, capacity),
	}
}

// lookup returns the fill time of an in-flight request for line, if any.
// A completed fill stays visible until the next allocate prunes it.
func (m *mshrFile) lookup(line uint64) (int64, bool) {
	for i, l := range m.lines {
		if l == line {
			return m.fills[i], true
		}
	}
	return 0, false
}

// prune drops completed fills (fill time <= now), compacting in place.
// Only allocate calls it; every lookup ignores a completed fill, so an
// entry left unpruned is never observed.
func (m *mshrFile) prune(now int64) {
	n := 0
	for i, at := range m.fills {
		if at > now {
			m.lines[n], m.fills[n] = m.lines[i], at
			n++
		}
	}
	m.lines, m.fills = m.lines[:n], m.fills[:n]
}

// allocate prunes completed fills and makes room for a new one. If the file
// is still full, the request waits for the earliest in-flight fill to
// complete, which frees that entry. It returns the (possibly delayed)
// request start time.
func (m *mshrFile) allocate(now int64) int64 {
	m.prune(now)
	start := now
	if len(m.lines) == cap(m.lines) {
		m.FullStalls++
		start = slices.Min(m.fills)
		m.prune(start)
	}
	return start
}

// record stores the fill completion time after the backend access,
// overwriting the entry if line is already present.
func (m *mshrFile) record(line uint64, fillAt int64) {
	for i, l := range m.lines {
		if l == line {
			m.fills[i] = fillAt
			return
		}
	}
	m.lines = append(m.lines, line)
	m.fills = append(m.fills, fillAt)
}
