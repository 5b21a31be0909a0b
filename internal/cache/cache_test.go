package cache

import (
	"testing"
	"testing/quick"

	"specsched/internal/config"
	"specsched/internal/rng"
)

// stubBackend is a fixed-latency MemBackend recording its requests.
type stubBackend struct {
	lat   int64
	calls int64
	addrs []uint64
}

func (s *stubBackend) Access(addr, pc uint64, now int64, write bool) int64 {
	s.calls++
	s.addrs = append(s.addrs, addr)
	return now + s.lat
}

func TestArrayBasic(t *testing.T) {
	a := NewArray(1024, 2, 64) // 8 sets, 2 ways
	if a.Lookup(0x40) {
		t.Fatal("empty array hit")
	}
	a.Insert(0x40)
	if !a.Lookup(0x40) {
		t.Fatal("inserted line missing")
	}
	if a.Lookup(0x80) {
		t.Fatal("different line hit")
	}
	// Same line, different offset within the 64 B line.
	if !a.Lookup(0x7f) {
		t.Fatal("same-line different-offset missed")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(1024, 2, 64) // 8 sets; same set every 512 bytes
	setStride := uint64(8 * 64)
	a.Insert(0)
	a.Insert(setStride)
	a.Lookup(0) // line 0 is now MRU
	a.Insert(2 * setStride)
	if a.Contains(setStride) {
		t.Fatal("LRU line not evicted")
	}
	if !a.Contains(0) || !a.Contains(2*setStride) {
		t.Fatal("wrong line evicted")
	}
}

func TestArrayInsertExistingRefreshes(t *testing.T) {
	a := NewArray(1024, 2, 64)
	setStride := uint64(8 * 64)
	a.Insert(0)
	a.Insert(setStride)
	if _, evicted := a.Insert(0); evicted {
		t.Fatal("re-inserting a present line evicted something")
	}
	a.Insert(2 * setStride)
	if !a.Contains(0) {
		t.Fatal("refreshed line was evicted")
	}
}

func TestArrayEvictionReturnsOldLine(t *testing.T) {
	a := NewArray(128, 1, 64) // direct-mapped, 2 sets
	a.Insert(0)
	old, evicted := a.Insert(128) // same set as 0
	if !evicted || old != 0 {
		t.Fatalf("eviction = (%#x, %t), want (0, true)", old, evicted)
	}
}

// stampLRU is the reference tag array: every way records its last use as
// a counter bumped on each use, and a fill replaces an invalid way or else
// the least recently used way. Array must agree with it hit for hit
// and victim for victim.
type stampLRU struct {
	ways    int
	tags    []uint64
	lastUse []int64
	clock   int64
}

func newStampLRU(sets, ways int) *stampLRU {
	r := &stampLRU{ways: ways, tags: make([]uint64, sets*ways), lastUse: make([]int64, sets*ways)}
	for i := range r.tags {
		r.tags[i] = invalidTag
	}
	return r
}

func (r *stampLRU) find(set int, line uint64) int {
	for w := 0; w < r.ways; w++ {
		if r.tags[set*r.ways+w] == line {
			return set*r.ways + w
		}
	}
	return -1
}

func (r *stampLRU) touch(i int) {
	r.clock++
	r.lastUse[i] = r.clock
}

func (r *stampLRU) lookup(set int, line uint64) bool {
	i := r.find(set, line)
	if i >= 0 {
		r.touch(i)
	}
	return i >= 0
}

func (r *stampLRU) insert(set int, line uint64) (uint64, bool) {
	if i := r.find(set, line); i >= 0 {
		r.touch(i)
		return 0, false
	}
	victim := set * r.ways
	for i := victim; i < (set+1)*r.ways; i++ {
		if r.tags[i] == invalidTag {
			victim = i
			break
		}
		if r.lastUse[i] < r.lastUse[victim] {
			victim = i
		}
	}
	old, had := r.tags[victim], r.tags[victim] != invalidTag
	r.tags[victim] = line
	r.touch(victim)
	return old, had
}

// TestArrayMatchesStampLRU drives Array and the stamp-LRU reference with
// the same random mix of Lookup, Insert and Contains over a few hot sets
// and checks every hit, evicted line and eviction flag.
func TestArrayMatchesStampLRU(t *testing.T) {
	const lineBytes, sets = 64, 4
	for _, ways := range []int{1, 2, 8, 16} {
		a := NewArray(sets*ways*lineBytes, ways, lineBytes)
		ref := newStampLRU(sets, ways)
		r := rng.New(uint64(ways))
		lookups := 0
		// Each set sees up to 2·ways distinct lines, so sets both fill
		// and thrash.
		for step := 0; step < 20000; step++ {
			line := uint64(r.Intn(sets * 2 * ways))
			addr := line*lineBytes + uint64(r.Intn(lineBytes))
			set := a.SetOf(addr)
			switch op := r.Intn(3); op {
			case 0:
				lookups++
				if got, want := a.Lookup(addr), ref.lookup(set, line); got != want {
					t.Fatalf("%d-way step %d: Lookup(%#x) = %t, reference %t", ways, step, addr, got, want)
				}
			case 1:
				old, evicted := a.Insert(addr)
				wantOld, wantEvicted := ref.insert(set, line)
				if evicted != wantEvicted || (evicted && old != wantOld*lineBytes) {
					t.Fatalf("%d-way step %d: Insert(%#x) = (%#x, %t), reference (%#x, %t)",
						ways, step, addr, old, evicted, wantOld*lineBytes, wantEvicted)
				}
			default:
				if got, want := a.Contains(addr), ref.find(set, line) >= 0; got != want {
					t.Fatalf("%d-way step %d: Contains(%#x) = %t, reference %t", ways, step, addr, got, want)
				}
			}
		}
		if lookups == 0 {
			t.Fatalf("%d-way: no lookups ran", ways)
		}
	}
}

func TestArrayWorkingSetProperty(t *testing.T) {
	// Property: any working set with at most `ways` lines per set never
	// misses after the first touch, under any access order.
	f := func(seed uint64) bool {
		a := NewArray(4096, 4, 64) // 16 sets, 4 ways
		r := rng.New(seed)
		// Pick 4 lines in each of 3 random sets.
		var lines []uint64
		for s := 0; s < 3; s++ {
			set := uint64(r.Intn(16))
			for w := 0; w < 4; w++ {
				lines = append(lines, (uint64(w*16)+set)*64)
			}
		}
		for _, l := range lines {
			a.Insert(l)
		}
		for i := 0; i < 200; i++ {
			l := lines[r.Intn(len(lines))]
			if !a.Lookup(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayInvalidGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { NewArray(0, 2, 64) },
		func() { NewArray(1000, 2, 64) },
		func() { NewArray(3*64*2, 2, 64) }, // 3 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func newTestL1(banked bool, slb bool) (*L1D, *stubBackend) {
	cfg := config.Default()
	cfg.BankedL1 = banked
	cfg.SingleLineBuffer = slb
	b := &stubBackend{lat: 13}
	return NewL1D(&cfg, b), b
}

func TestL1HitTiming(t *testing.T) {
	l, _ := newTestL1(false, true)
	l.Load(0x1000, 0x40, 10) // miss, fills
	res := l.Load(0x1000, 0x44, 200)
	if !res.Hit {
		t.Fatal("expected hit after fill")
	}
	if res.DataReady != 200+l.LoadToUse() {
		t.Fatalf("hit DataReady = %d, want %d", res.DataReady, 200+l.LoadToUse())
	}
	if res.HitKnown != 200+l.LoadToUse()-1 {
		t.Fatalf("HitKnown = %d, want one cycle before data", res.HitKnown)
	}
	if res.BankDelayed {
		t.Fatal("unbanked cache reported a bank delay")
	}
}

func TestL1MissGoesBelow(t *testing.T) {
	l, b := newTestL1(false, true)
	res := l.Load(0x1000, 0x40, 10)
	if res.Hit {
		t.Fatal("cold access hit")
	}
	if b.calls != 1 {
		t.Fatalf("backend calls = %d, want 1", b.calls)
	}
	// Miss latency: service + loadToUse (tag check) + backend latency.
	want := int64(10) + l.LoadToUse() + 13
	if res.DataReady != want {
		t.Fatalf("miss DataReady = %d, want %d", res.DataReady, want)
	}
}

func TestL1MSHRMerge(t *testing.T) {
	l, b := newTestL1(false, true)
	first := l.Load(0x1000, 0x40, 10)
	second := l.Load(0x1010, 0x44, 11) // same line, while fill in flight
	if b.calls != 1 {
		t.Fatalf("backend calls = %d, want 1 (merge)", b.calls)
	}
	// A merged access reports a miss and takes the earlier fill's time.
	if second.Hit || second.DataReady != first.DataReady {
		t.Fatalf("merged access: hit=%t ready=%d, want miss at the first fill's %d",
			second.Hit, second.DataReady, first.DataReady)
	}
}

func TestL1BankConflictSameBankDifferentSet(t *testing.T) {
	l, _ := newTestL1(true, true)
	// Warm both lines so only bank behaviour matters.
	l.Load(0x0000, 0x40, 0)
	l.Load(0x1040, 0x44, 1)
	// 0x0000 and 0x1040 share bank 0 (bits 3..5) but sit in sets 0 and 1.
	a := l.Load(0x0000, 0x40, 100)
	c := l.Load(0x1040, 0x44, 100)
	if a.BankDelayed || a.ServiceCycle != 100 {
		t.Fatalf("first load of the pair: delayed=%t service=%d, want false/100",
			a.BankDelayed, a.ServiceCycle)
	}
	if !c.BankDelayed || c.ServiceCycle != 101 {
		t.Fatalf("conflicting load: delayed=%t service=%d, want true/101",
			c.BankDelayed, c.ServiceCycle)
	}
}

func TestL1NoConflictDifferentBanks(t *testing.T) {
	l, _ := newTestL1(true, true)
	l.Load(0x0000, 0x40, 0)
	l.Load(0x0008, 0x44, 1) // next quadword: next bank
	a := l.Load(0x0000, 0x40, 100)
	c := l.Load(0x0008, 0x44, 100)
	if a.BankDelayed || c.BankDelayed {
		t.Fatal("different banks should not conflict")
	}
}

func TestL1SLBAllowsSameSetPair(t *testing.T) {
	l, _ := newTestL1(true, true)
	// Same line => same set and same bank for identical quadword offset.
	l.Load(0x0000, 0x40, 0)
	a := l.Load(0x0000, 0x40, 100)
	c := l.Load(0x0000, 0x44, 100)
	if a.BankDelayed || c.BankDelayed {
		t.Fatal("SLB pair delayed")
	}
	// A third access to the same set conflicts (only two SLB ports).
	d := l.Load(0x0000, 0x48, 100)
	if !d.BankDelayed {
		t.Fatal("third same-set access must be delayed")
	}
}

func TestL1NoSLBSameSetConflicts(t *testing.T) {
	l, _ := newTestL1(true, false)
	l.Load(0x0000, 0x40, 0)
	a := l.Load(0x0000, 0x40, 100)
	c := l.Load(0x0000, 0x44, 100)
	if a.BankDelayed {
		t.Fatal("first access delayed")
	}
	if !c.BankDelayed {
		t.Fatal("same-bank pair without SLB must conflict")
	}
}

func TestL1PortLimit(t *testing.T) {
	l, _ := newTestL1(true, true)
	// Three loads to three different banks in one cycle: two ports only.
	a := l.Load(0x0000, 0x40, 100)
	b := l.Load(0x0008, 0x44, 100)
	c := l.Load(0x0010, 0x48, 100)
	if a.BankDelayed || b.BankDelayed {
		t.Fatal("first two loads should both be serviced")
	}
	if !c.BankDelayed || c.ServiceCycle != 101 {
		t.Fatalf("third load service = %d (delayed=%t), want 101", c.ServiceCycle, c.BankDelayed)
	}
}

func TestL1CascadedConflictPaperExample(t *testing.T) {
	// §3.1: two conflicting loads at cycle 0; at cycle 1 two more loads
	// that conflict with each other but not with the queued one — the
	// cache services the queued load plus one of the new pair; the last
	// proceeds at cycle 2.
	l, _ := newTestL1(true, true)
	a := l.Load(0x0000, 0x40, 0) // bank 0, set 0
	b := l.Load(0x1040, 0x44, 0) // bank 0, set 1 -> queued to cycle 1
	c := l.Load(0x0010, 0x48, 1) // bank 2, set 0
	d := l.Load(0x1050, 0x4c, 1) // bank 2, set 1
	if a.ServiceCycle != 0 || b.ServiceCycle != 1 {
		t.Fatalf("first pair services = %d,%d, want 0,1", a.ServiceCycle, b.ServiceCycle)
	}
	if c.ServiceCycle != 1 {
		t.Fatalf("first of second pair service = %d, want 1", c.ServiceCycle)
	}
	if d.ServiceCycle != 2 {
		t.Fatalf("last load service = %d, want 2", d.ServiceCycle)
	}
}

func TestL1OutOfOrderSubmitPanics(t *testing.T) {
	l, _ := newTestL1(true, true)
	l.Load(0x0000, 0x40, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order submit did not panic")
		}
	}()
	l.Load(0x0000, 0x40, 50)
}

func TestL1StoreFillsLine(t *testing.T) {
	l, b := newTestL1(false, true)
	l.Store(0x3000, 0x40, 10)
	if b.calls != 1 {
		t.Fatalf("store miss backend calls = %d, want 1", b.calls)
	}
	res := l.Load(0x3000, 0x44, 200)
	if !res.Hit {
		t.Fatal("load after store-allocate missed")
	}
}

func TestL1SetInterleave(t *testing.T) {
	cfg := config.Default()
	cfg.BankedL1 = true
	cfg.L1Interleave = config.SetInterleave
	l := NewL1D(&cfg, &stubBackend{lat: 13})
	// Under set interleaving, two quadwords of the same line share a bank.
	if l.BankOf(0x0000) != l.BankOf(0x0008) {
		t.Fatal("same line must map to one bank under set interleaving")
	}
	// Consecutive sets map to different banks.
	if l.BankOf(0x0000) == l.BankOf(0x0040) {
		t.Fatal("consecutive sets should hit different banks")
	}
}

func TestL2HitMissTiming(t *testing.T) {
	cfg := config.Default()
	b := &stubBackend{lat: 100}
	l2 := NewL2(&cfg, b)
	miss := l2.Access(0x8000, 0x40, 1000, false)
	// Miss: tag check (13) + backend (100).
	if miss != 1000+13+100 {
		t.Fatalf("L2 miss ready = %d, want %d", miss, 1000+13+100)
	}
	hit := l2.Access(0x8000, 0x40, 5000, false)
	if hit != 5000+13 {
		t.Fatalf("L2 hit ready = %d, want %d", hit, 5000+13)
	}
}

func TestL2MSHRMerge(t *testing.T) {
	cfg := config.Default()
	b := &stubBackend{lat: 100}
	l2 := NewL2(&cfg, b)
	first := l2.Access(0x8000, 0x40, 1000, false)
	second := l2.Access(0x8010, 0x44, 1001, false)
	if b.calls != 1 {
		t.Fatalf("backend calls = %d, want 1", b.calls)
	}
	if second > first {
		t.Fatalf("merged access ready %d after original %d", second, first)
	}
}

func TestStridePrefetcherTrains(t *testing.T) {
	p := newStridePrefetcher(8)
	pc := uint64(0x40)
	var out []uint64
	for i := 0; i < 5; i++ {
		out = p.observe(uint64(0x1000+i*64), pc)
	}
	if len(out) != 8 {
		t.Fatalf("confirmed stride issued %d prefetches, want 8", len(out))
	}
	if out[0] != 0x1000+5*64 || out[7] != 0x1000+12*64 {
		t.Fatalf("prefetch addresses wrong: first=%#x last=%#x", out[0], out[7])
	}
}

func TestStridePrefetcherResetsOnStrideChange(t *testing.T) {
	p := newStridePrefetcher(8)
	pc := uint64(0x40)
	for i := 0; i < 5; i++ {
		p.observe(uint64(0x1000+i*64), pc)
	}
	if out := p.observe(0x9000, pc); out != nil {
		t.Fatal("stride change should reset confidence")
	}
}

func TestStridePrefetcherIgnoresZeroStride(t *testing.T) {
	p := newStridePrefetcher(8)
	for i := 0; i < 10; i++ {
		if out := p.observe(0x1000, 0x40); out != nil {
			t.Fatal("zero stride must not prefetch")
		}
	}
}

func TestL2PrefetchHidesStreamLatency(t *testing.T) {
	cfg := config.Default()
	b := &stubBackend{lat: 100}
	l2 := NewL2(&cfg, b)
	// Stream 64 consecutive lines through the same PC.
	now := int64(1000)
	misses := 0
	for i := 0; i < 64; i++ {
		addr := uint64(0x100000 + i*64)
		ready := l2.Access(addr, 0x40, now, false)
		if ready > now+int64(cfg.L2.Latency) {
			misses++
		}
		now += 50
	}
	// Every streamed line goes below once, by demand or by prefetch, and
	// the last access prefetches PrefetchDegree lines past the stream.
	if want := int64(64 + cfg.PrefetchDegree); b.calls != want {
		t.Fatalf("requests below = %d, want %d (64 stream lines + %d prefetched ahead)",
			b.calls, want, cfg.PrefetchDegree)
	}
	if misses > 16 {
		t.Fatalf("%d/64 stream accesses paid miss latency despite prefetching", misses)
	}
}

func TestL2PrefetchDisabled(t *testing.T) {
	cfg := config.Default()
	cfg.PrefetchEnable = false
	b := &stubBackend{lat: 100}
	l2 := NewL2(&cfg, b)
	for i := 0; i < 16; i++ {
		now := int64(1000 + i*200)
		if ready := l2.Access(uint64(0x100000+i*64), 0x40, now, false); ready != now+13+100 {
			t.Fatalf("stream access %d ready at %d, want a full miss at %d", i, ready, now+13+100)
		}
	}
	if b.calls != 16 {
		t.Fatalf("requests below = %d, want only the 16 demand misses", b.calls)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := newMSHRFile(2)
	m.record(1, 1000)
	m.record(2, 2000)
	start := m.allocate(100)
	if start != 1000 {
		t.Fatalf("allocate with full MSHRs start = %d, want 1000", start)
	}
	if _, ok := m.lookup(1); ok {
		t.Fatal("the fill the stalled request waited for still holds its entry")
	}
}

func TestMSHRPrune(t *testing.T) {
	m := newMSHRFile(4)
	m.record(1, 100)
	m.record(2, 200)
	m.prune(150)
	if _, ok := m.lookup(1); ok {
		t.Fatal("completed fill not pruned")
	}
	if _, ok := m.lookup(2); !ok {
		t.Fatal("in-flight fill wrongly pruned")
	}
}

// TestL1StoreMissesAfterFillCompletes: a store to a line evicted from the
// L1 while its fill was in flight merges with the fill until it completes
// and sends nothing below; once the fill has completed, the store misses
// and sends exactly one request below, with no allocate in between to
// prune the stale MSHR entry.
func TestL1StoreMissesAfterFillCompletes(t *testing.T) {
	cfg := config.Default()
	cfg.L1D.SizeBytes, cfg.L1D.Ways = 64, 1 // one direct-mapped line
	b := &stubBackend{lat: 13}
	l := NewL1D(&cfg, b)
	const a, c = 0x1000, 0x2000 // same (only) set
	first := l.Load(a, 0x40, 10)
	l.Load(c, 0x44, 11) // evicts a while its fill is in flight
	if l.arr.Contains(a) {
		t.Fatal("test premise: a still present")
	}
	calls := b.calls
	l.Store(a, 0x48, first.DataReady-1) // a's fill is still in flight
	if b.calls != calls {
		t.Fatalf("store merging with an in-flight fill sent %d requests below", b.calls-calls)
	}
	l.Store(a, 0x48, first.DataReady+100) // a's fill has completed
	if b.calls != calls+1 {
		t.Fatalf("store after the fill completed sent %d requests below, want 1", b.calls-calls)
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	// L1 -> L2 -> stub DRAM: a pointer-chase over a 256 KB footprint
	// misses the L1 often, hits the L2 mostly after warmup.
	cfg := config.Default()
	dram := &stubBackend{lat: 130}
	l2 := &l2Latencies{L2: NewL2(&cfg, dram)}
	l1 := NewL1D(&cfg, l2)
	r := rng.New(5)
	now := int64(0)
	const loads = 20000
	misses := 0
	for i := 0; i < loads; i++ {
		addr := uint64(r.Intn(256<<10)) &^ 7
		if !l1.Load(addr, 0x40, now).Hit {
			misses++
		}
		now += 3
	}
	if missRate := float64(misses) / loads; missRate < 0.05 {
		t.Fatalf("L1 miss rate %.3f implausibly low for 256KB random footprint", missRate)
	}
	if l2.hits == 0 {
		t.Fatal("L2 never hit despite footprint fitting")
	}
}

// l2Latencies counts the L2 accesses served at the L2 hit latency.
type l2Latencies struct {
	*L2
	hits int
}

func (l *l2Latencies) Access(addr, pc uint64, now int64, write bool) int64 {
	ready := l.L2.Access(addr, pc, now, write)
	if ready == now+l.Latency() {
		l.hits++
	}
	return ready
}

func TestOccRingSlotReuse(t *testing.T) {
	o := newOccRing(8, occStartWindow)
	i1 := o.slot(5)
	o.total[i1] = 2
	// Revisiting the same cycle keeps the reservation.
	if i2 := o.slot(5); o.total[i2] != 2 {
		t.Fatal("slot reset on revisit of the same cycle")
	}
	// A different cycle mapping to the same index resets it.
	far := int64(5 + o.window)
	if i3 := o.slot(far); o.total[i3] != 0 {
		t.Fatal("stale slot not reset for a new cycle")
	}
}

func TestOccRingBankRowsIndependent(t *testing.T) {
	o := newOccRing(8, occStartWindow)
	i := o.slot(100)
	o.bankUse[i*8+3] = 1
	j := o.slot(101)
	if i == j {
		t.Fatal("consecutive cycles mapped to the same slot")
	}
	if o.bankUse[j*8+3] != 0 {
		t.Fatal("bank occupancy leaked across cycles")
	}
}

func TestL1BacklogOverflowPanics(t *testing.T) {
	// A single bank hammered beyond the occupancy window must panic
	// (the core's watchdog would flag such a livelock first in practice).
	cfg := config.Default()
	cfg.BankedL1 = true
	l := NewL1D(&cfg, &stubBackend{lat: 13})
	defer func() {
		if recover() == nil {
			t.Fatal("unbounded bank backlog did not panic")
		}
	}()
	for i := 0; i < 10000; i++ {
		// All to bank 0, different sets, same submit cycle.
		l.Load(uint64(i)*4096, 0x40, 0)
	}
}

// TestL1OccRingGrowthMatchesFullWindow drives one bank's backlog through
// every doubling of the occupancy ring, from occStartWindow to
// occMaxWindow. Every LoadResult must equal that of an L1D whose ring
// holds occMaxWindow cycles from the start. Two streams: one cycle's burst
// (each growth lands with loads of that cycle still to come), and a
// backlog built over thousands of cycles, drained, and built again.
func TestL1OccRingGrowthMatchesFullWindow(t *testing.T) {
	cfg := config.Default()
	cfg.BankedL1 = true
	cfg.SingleLineBuffer = false // one access per bank and cycle
	bank0 := func(r *rng.RNG) uint64 { return uint64(r.Intn(512)) << 6 }
	anyBank := func(r *rng.RNG) uint64 { return uint64(r.Intn(64<<10)) &^ 7 }

	// compare runs next's loads through both L1Ds until it reports done,
	// then checks that the grown ring went through every window size.
	compare := func(name string, next func(i int, r *rng.RNG, last LoadResult) (addr uint64, now int64, done bool)) {
		grown := NewL1D(&cfg, &stubBackend{lat: 13})
		ref := NewL1D(&cfg, &stubBackend{lat: 13})
		ref.occ = newOccRing(cfg.L1Banks, occMaxWindow)
		seen := map[int64]bool{grown.occ.window: true}
		r := rng.New(11)
		var last LoadResult
		for i := 0; ; i++ {
			addr, now, done := next(i, r, last)
			if done {
				break
			}
			got, want := grown.Load(addr, 0x40, now), ref.Load(addr, 0x40, now)
			if got != want {
				t.Fatalf("%s: load %d (addr %#x, cycle %d): grown ring %+v, full ring %+v",
					name, i, addr, now, got, want)
			}
			seen[grown.occ.window] = true
			last = got
		}
		for w := int64(occStartWindow); w <= occMaxWindow; w *= 2 {
			if !seen[w] {
				t.Errorf("%s: ring never held a %d-cycle window", name, w)
			}
		}
	}

	// One cycle: 3500 bank-0 loads with a load to any bank after each.
	compare("one cycle", func(i int, r *rng.RNG, _ LoadResult) (uint64, int64, bool) {
		if i%2 == 1 {
			return anyBank(r), 100, false
		}
		return bank0(r), 100, i >= 2*3500
	})

	// Many cycles: two loads a cycle (both read ports), 80% to bank 0,
	// until the bank-0 backlog passes 3800 cycles; then one load a cycle
	// to any bank until it has drained; then a second burst and drain.
	now, bursts, hammer := int64(0), 0, true
	compare("many cycles", func(i int, r *rng.RNG, last LoadResult) (uint64, int64, bool) {
		if i > 0 {
			if last.ServiceCycle-now > 3800 && hammer {
				hammer = false
				bursts++
			} else if last.ServiceCycle-now < 8 && !hammer && bursts < 2 {
				hammer = true
			}
			if !hammer || i%2 == 0 {
				now++
			}
		}
		if hammer && r.Bool(0.8) {
			return bank0(r), now, false
		}
		return anyBank(r), now, i >= 36000
	})
	if bursts < 2 {
		t.Fatalf("only %d backlog bursts reached 3800 cycles", bursts)
	}
}

func TestL1ServiceNeverBeforeSubmit(t *testing.T) {
	cfg := config.Default()
	cfg.BankedL1 = true
	l := NewL1D(&cfg, &stubBackend{lat: 13})
	r := rng.New(3)
	now := int64(0)
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(64<<10)) &^ 7
		res := l.Load(addr, 0x40, now)
		if res.ServiceCycle < now {
			t.Fatalf("service %d before submit %d", res.ServiceCycle, now)
		}
		if res.DataReady < res.ServiceCycle {
			t.Fatalf("data ready %d before service %d", res.DataReady, res.ServiceCycle)
		}
		if res.HitKnown >= res.DataReady && res.Hit {
			t.Fatalf("hit signal at %d not before data at %d", res.HitKnown, res.DataReady)
		}
		if i%3 == 0 {
			now++
		}
	}
}
