package cache

import "specsched/internal/config"

// strideEntry is one PC-indexed stride-detection slot.
type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int8 // confidence, saturates at 3; prefetch when >= 2
}

// stridePrefetcher is the L2's degree-N PC-based stride prefetcher
// (Table 1: "Stride prefetcher, degree 8").
type stridePrefetcher struct {
	table  []strideEntry
	degree int
	// out is the reused result buffer for observe — its contents are only
	// valid until the next call, which every caller consumes immediately.
	out []uint64
}

func newStridePrefetcher(degree int) *stridePrefetcher {
	return &stridePrefetcher{
		table:  make([]strideEntry, 256),
		degree: degree,
		out:    make([]uint64, 0, degree),
	}
}

// observe trains on a demand access and returns the addresses to prefetch
// (empty unless a stride is confirmed).
func (p *stridePrefetcher) observe(addr, pc uint64) []uint64 {
	e := &p.table[(pc>>2)&uint64(len(p.table)-1)]
	if e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	out := p.out[:0]
	for k := 1; k <= p.degree; k++ {
		out = append(out, uint64(int64(addr)+stride*int64(k)))
	}
	p.out = out
	return out
}

// L2 is the unified second-level cache: 1 MB, 16-way, 13 cycles, 64 MSHRs,
// no port constraints (Table 1), with a stride prefetcher.
type L2 struct {
	arr     *Array
	mshr    *mshrFile
	next    MemBackend
	latency int64
	pf      *stridePrefetcher
}

// NewL2 constructs the L2 from the core configuration, backed by next
// (normally the DRAM).
func NewL2(cfg *config.CoreConfig, next MemBackend) *L2 {
	l := &L2{
		arr:     NewArray(cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.LineBytes),
		mshr:    newMSHRFile(cfg.L2.MSHRs),
		next:    next,
		latency: int64(cfg.L2.Latency),
	}
	if cfg.PrefetchEnable {
		l.pf = newStridePrefetcher(cfg.PrefetchDegree)
	}
	return l
}

// Access implements MemBackend: an L1 miss requests the line containing
// addr at cycle now; the return value is the cycle the line reaches the L1.
func (l *L2) Access(addr, pc uint64, now int64, write bool) int64 {
	ready := l.demand(addr, pc, now, write)
	if l.pf != nil && !write {
		for _, pa := range l.pf.observe(addr, pc) {
			l.prefetch(pa, pc, now)
		}
	}
	return ready
}

// demand serves one demand access and returns its ready cycle.
func (l *L2) demand(addr, pc uint64, now int64, write bool) int64 {
	line := l.arr.LineOf(addr)
	if l.arr.Lookup(addr) {
		ready := now + l.latency
		// Hit on a line still being filled (e.g. by a prefetch): wait
		// for the fill.
		if fill, ok := l.mshr.lookup(line); ok && fill > ready {
			ready = fill
		}
		return ready
	}
	if fill, ok := l.mshr.lookup(line); ok && fill > now {
		return max(fill, now+l.latency)
	}
	start := l.mshr.allocate(now)
	fill := l.next.Access(addr, pc, start+l.latency, write)
	l.mshr.record(line, fill)
	l.arr.Insert(addr)
	return max(fill, now+l.latency)
}

// prefetch requests a line speculatively; it consumes MSHR and DRAM
// bandwidth but nobody waits on it.
func (l *L2) prefetch(addr, pc uint64, now int64) {
	line := l.arr.LineOf(addr)
	if l.arr.Contains(addr) {
		return
	}
	if fill, ok := l.mshr.lookup(line); ok && fill > now {
		return
	}
	start := l.mshr.allocate(now)
	fill := l.next.Access(addr, pc, start+l.latency, false)
	l.mshr.record(line, fill)
	l.arr.Insert(addr)
}

// Latency returns the L2 access latency in cycles.
func (l *L2) Latency() int64 { return l.latency }
