package cache

import "specsched/internal/config"

// LoadResult describes the timing outcome of one load access.
type LoadResult struct {
	// ServiceCycle is the cycle the cache access actually starts. It
	// equals the submit cycle unless a bank conflict queued the load.
	ServiceCycle int64
	// DataReady is the cycle the value is available on the bypass network.
	DataReady int64
	// HitKnown is the cycle the L1 hit/miss signal is available — one
	// cycle before the L1 data would return (paper footnote 2).
	HitKnown int64
	// Hit reports an L1 hit (including hits on in-flight fills being
	// merged, which still deliver late and therefore count as misses for
	// scheduling purposes — see Merged).
	Hit bool
	// BankDelayed reports that a bank conflict delayed the access.
	BankDelayed bool
	// Merged reports that the access matched an in-flight fill (MSHR
	// merge): no new request was sent below.
	Merged bool
}

// occRing tracks port and bank usage for a sliding window of future
// cycles, allocation-free in steady state: slot i describes cycle tags[i],
// lazily reset when a new cycle maps onto it. The window bounds how far a
// bank backlog can push a single access. It starts at occStartWindow
// cycles and doubles on demand up to occMaxWindow; the watchdog in core
// would flag a backlog approaching that cap long before.
type occRing struct {
	window   int64
	banks    int
	tags     []int64
	total    []uint8
	bankUse  []uint8  // window*banks
	bankAddr []uint64 // window*banks: first access per bank (SLB pairing)
}

const (
	// occStartWindow covers every bank backlog the presets produce on the
	// built-in workloads (the largest is a handful of cycles), so the ring
	// normally never grows.
	occStartWindow = 64
	// occMaxWindow caps the ring; a backlog reaching it panics.
	occMaxWindow = 4096
)

func newOccRing(banks int, window int64) *occRing {
	o := &occRing{
		window:   window,
		banks:    banks,
		tags:     make([]int64, window),
		total:    make([]uint8, window),
		bankUse:  make([]uint8, window*int64(banks)),
		bankAddr: make([]uint64, window*int64(banks)),
	}
	for i := range o.tags {
		o.tags[i] = -1
	}
	return o
}

// slot returns the ring index for cycle c, resetting the slot if it still
// describes an older cycle.
func (o *occRing) slot(c int64) int {
	i := int(c & (o.window - 1))
	if o.tags[i] != c {
		o.tags[i] = c
		o.total[i] = 0
		base := i * o.banks
		for b := 0; b < o.banks; b++ {
			o.bankUse[base+b] = 0
		}
	}
	return i
}

// grow doubles the window, moving each slot to where its cycle maps in the
// doubled ring. Distinct slots describe cycles that differ modulo the old
// window, hence modulo the new one, so no two collide; and a cycle never
// reserved reads the same from a fresh slot as from a reset one.
func (o *occRing) grow() {
	g := newOccRing(o.banks, 2*o.window)
	for i, c := range o.tags {
		if c < 0 {
			continue
		}
		j := int(c & (g.window - 1))
		g.tags[j] = c
		g.total[j] = o.total[i]
		copy(g.bankUse[j*o.banks:(j+1)*o.banks], o.bankUse[i*o.banks:(i+1)*o.banks])
		copy(g.bankAddr[j*o.banks:(j+1)*o.banks], o.bankAddr[i*o.banks:(i+1)*o.banks])
	}
	*o = *g
}

// L1D is the banked first-level data cache. Loads are submitted at their
// execute cycle in non-decreasing cycle order; the cache assigns each a
// service cycle subject to its two read ports and bank constraints,
// queueing conflicting accesses exactly as the buffer described in §3.1
// ("Bank Conflicts") does.
type L1D struct {
	arr  *Array
	mshr *mshrFile
	next MemBackend

	loadToUse int64
	banked    bool
	banks     int
	interlv   config.Interleave
	slb       bool
	readPorts int

	occ        *occRing
	lastSubmit int64

	// Statistics.
	Loads         int64
	Stores        int64
	LoadHits      int64
	LoadMisses    int64
	BankConflicts int64 // loads delayed by bank conflicts
	MSHRMerges    int64
}

// NewL1D constructs the L1D from the core configuration, backed by next
// (normally the L2).
func NewL1D(cfg *config.CoreConfig, next MemBackend) *L1D {
	return &L1D{
		arr:       NewArray(cfg.L1D.SizeBytes, cfg.L1D.Ways, cfg.L1D.LineBytes),
		mshr:      newMSHRFile(cfg.L1D.MSHRs),
		next:      next,
		loadToUse: int64(cfg.L1D.Latency),
		banked:    cfg.BankedL1,
		banks:     cfg.L1Banks,
		interlv:   cfg.L1Interleave,
		slb:       cfg.SingleLineBuffer,
		readPorts: 2,
		occ:       newOccRing(cfg.L1Banks, occStartWindow),
	}
}

// LoadToUse returns the L1 load-to-use latency in cycles.
func (l *L1D) LoadToUse() int64 { return l.loadToUse }

// BankOf returns the bank index addr maps to under the configured
// interleaving.
func (l *L1D) BankOf(addr uint64) int {
	if l.interlv == config.SetInterleave {
		return l.arr.SetOf(addr) & (l.banks - 1)
	}
	return int(addr>>3) & (l.banks - 1) // quadword interleaved
}

// canService reports whether an access to addr can be serviced at the
// ring slot i.
func (l *L1D) canService(i int, addr uint64) bool {
	if int(l.occ.total[i]) >= l.readPorts {
		return false
	}
	if !l.banked {
		return true
	}
	bi := i*l.occ.banks + l.BankOf(addr)
	switch l.occ.bankUse[bi] {
	case 0:
		return true
	case 1:
		// The Single Line Buffer allows a second access to the same set
		// of the same bank (two concurrent reads of one line buffer).
		return l.slb && l.arr.SetOf(l.occ.bankAddr[bi]) == l.arr.SetOf(addr)
	default:
		return false
	}
}

func (l *L1D) reserve(i int, addr uint64) {
	l.occ.total[i]++
	if !l.banked {
		return
	}
	bi := i*l.occ.banks + l.BankOf(addr)
	if l.occ.bankUse[bi] == 0 {
		l.occ.bankAddr[bi] = addr
	}
	l.occ.bankUse[bi]++
}

// Load submits a load reaching the Execute stage at cycle now. Submissions
// must be in non-decreasing cycle order. The per-bank buffer of §3.1 is
// modeled by assigning the earliest feasible service cycle: ports and banks
// are reserved greedily, so same-bank accesses are serviced in arrival
// order and younger loads may slip past older queued loads only to other
// banks — exactly the paper's arbitration.
func (l *L1D) Load(addr, pc uint64, now int64) LoadResult {
	if now < l.lastSubmit {
		panic("cache: L1D loads must be submitted in cycle order")
	}
	l.lastSubmit = now
	l.Loads++

	service := now
	for {
		if service-now >= l.occ.window {
			if l.occ.window >= occMaxWindow {
				panic("cache: L1D bank backlog exceeded the occupancy window")
			}
			l.occ.grow()
		}
		i := l.occ.slot(service)
		if l.canService(i, addr) {
			l.reserve(i, addr)
			break
		}
		service++
	}
	res := LoadResult{ServiceCycle: service, BankDelayed: service > now}
	if res.BankDelayed {
		l.BankConflicts++
	}
	res.HitKnown = service + l.loadToUse - 1

	line := l.arr.LineOf(addr)
	if l.arr.Lookup(addr) {
		res.Hit = true
		l.LoadHits++
		res.DataReady = service + l.loadToUse
		// A hit on a line whose fill is still in flight delivers when
		// the fill completes.
		if fill, ok := l.mshr.lookup(line); ok && fill > res.DataReady {
			res.DataReady = fill
			res.Hit = false // late data: scheduling-wise a miss
			res.Merged = true
			l.MSHRMerges++
			l.LoadHits--
			l.LoadMisses++
		}
		return res
	}
	l.LoadMisses++

	if fill, ok := l.mshr.lookup(line); ok && fill > service {
		// Merge with an in-flight miss to the same line.
		res.Merged = true
		l.MSHRMerges++
		res.DataReady = max(fill, service+l.loadToUse)
		return res
	}

	start := l.mshr.allocate(service)
	fill := l.next.Access(addr, pc, start+l.loadToUse, false)
	l.mshr.record(line, fill)
	l.arr.Insert(addr)
	res.DataReady = max(fill, service+l.loadToUse)
	return res
}

// Store submits a store performing its cache access at cycle now (at
// commit, through the 2 write ports; stores do not contend with load banks
// in this model, matching the paper's focus on load bank conflicts). Misses
// allocate the line (write-allocate); nobody waits on the returned fill.
func (l *L1D) Store(addr, pc uint64, now int64) {
	l.Stores++
	line := l.arr.LineOf(addr)
	if l.arr.Lookup(addr) {
		return
	}
	if fill, ok := l.mshr.lookup(line); ok && fill > now {
		return // merges with the in-flight fill
	}
	start := l.mshr.allocate(now)
	fill := l.next.Access(addr, pc, start+l.loadToUse, true)
	l.mshr.record(line, fill)
	l.arr.Insert(addr)
}

// Probe reports whether addr is present, without disturbing LRU or stats.
func (l *L1D) Probe(addr uint64) bool { return l.arr.Contains(addr) }
