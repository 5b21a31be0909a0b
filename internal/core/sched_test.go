package core

import (
	"testing"

	"specsched/internal/config"
	"specsched/internal/trace"
	"specsched/internal/uop"
)

// TestTimingWheelRollover exercises the wheel beyond one revolution:
// entries scheduled past the ring size must stay parked through the
// intermediate visits of their slot and fire exactly at their cycle.
func TestTimingWheelRollover(t *testing.T) {
	w := newWheel[int](16, 2)
	size := int64(w.mask + 1)
	if size != 16 {
		t.Fatalf("wheel size = %d, want 16", size)
	}
	// Three entries hash to the same slot: due now, due next revolution,
	// due two revolutions out.
	w.schedule(5, 100)
	w.schedule(5+size, 200)
	w.schedule(5+2*size, 300)
	// An entry in a different slot must not be disturbed.
	w.schedule(7, 700)

	var got []int
	for now := int64(0); now <= 5+2*size; now++ {
		fired := w.collect(now, nil)
		for _, v := range fired {
			got = append(got, v)
		}
		switch now {
		case 5:
			if len(fired) != 1 || fired[0] != 100 {
				t.Fatalf("cycle %d fired %v, want [100]", now, fired)
			}
			if !w.busy(5) {
				t.Fatal("slot with future-revolution entries reported idle")
			}
		case 7:
			if len(fired) != 1 || fired[0] != 700 {
				t.Fatalf("cycle %d fired %v, want [700]", now, fired)
			}
		case 5 + size:
			if len(fired) != 1 || fired[0] != 200 {
				t.Fatalf("cycle %d fired %v, want [200]", now, fired)
			}
		case 5 + 2*size:
			if len(fired) != 1 || fired[0] != 300 {
				t.Fatalf("cycle %d fired %v, want [300]", now, fired)
			}
			if w.busy(5 + 2*size) {
				t.Fatal("fully drained slot still reports busy")
			}
		default:
			if len(fired) != 0 {
				t.Fatalf("cycle %d fired %v, want nothing", now, fired)
			}
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %v, want exactly 4 entries", got)
	}
}

// TestReplayWheelBeyondRevolution files replay detections on a core's
// replay wheel, which is sized to the replay horizon, up to three
// revolutions ahead. Each must stay parked through the earlier visits of
// its slot, be the skipper's next busy cycle once it is the soonest, and
// fire through processEvents exactly at its detect cycle.
func TestReplayWheelBeyondRevolution(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, trace.New(p), p.Seed)
	s := c.sched
	size := s.replayWheel.mask + 1
	if size <= int64(replayHorizon(&cfg)) {
		t.Fatalf("replay wheel of %d slots cannot hold its %d-cycle horizon in one revolution",
			size, replayHorizon(&cfg))
	}
	load := c.newInst()
	// Two slots, each holding entries of several revolutions; one cycle
	// carries two events.
	detects := []int64{3, 3 + size, 3 + size, 5 + size, 3 + 3*size, 5 + 2*size}
	due := map[int64]int64{}
	last := int64(0)
	for _, d := range detects {
		s.scheduleReplay(replayEvent{detect: d, reviseTo: d, cause: causeMiss, load: load})
		due[d]++
		last = max(last, d)
	}
	next := func(now int64) int64 {
		best := now + 4*size
		for d := range due {
			if d >= now && d < best {
				best = d
			}
		}
		return best
	}
	for now := int64(1); now <= last+size; now++ {
		if got, want := s.replayWheel.nextBusy(now, 4*size), next(now); got != want {
			t.Fatalf("cycle %d: nextBusy = %d, want %d", now, got, want)
		}
		c.cycle = now
		before := c.run.MissReplayEvents
		s.processEvents()
		if got := c.run.MissReplayEvents - before; got != due[now] {
			t.Fatalf("cycle %d: %d replay events fired, want %d", now, got, due[now])
		}
		delete(due, now)
	}
	if s.replayWheel.n != 0 {
		t.Fatalf("%d replay events left on the wheel", s.replayWheel.n)
	}
}

// TestWheelNextBusy covers the occupancy-bitmap query feeding the
// quiescent-cycle skipper: empty wheel, horizon capping, due-now entries,
// and multi-word bitmap slots.
func TestWheelNextBusy(t *testing.T) {
	w := newWheel[int](128, 2)
	size := w.mask + 1
	if size != 128 {
		t.Fatalf("wheel size = %d, want 128", size)
	}
	if got := w.nextBusy(10, 1000); got != 1010 {
		t.Fatalf("empty wheel nextBusy = %d, want horizon 1010", got)
	}
	// Slot 100 lives in the second bitmap word.
	w.schedule(100, 1)
	if got := w.nextBusy(10, 1000); got != 100 {
		t.Fatalf("nextBusy = %d, want 100", got)
	}
	if got := w.nextBusy(10, 50); got != 60 {
		t.Fatalf("nextBusy beyond horizon = %d, want cap 60", got)
	}
	if got := w.nextBusy(100, 1000); got != 100 {
		t.Fatalf("due-now nextBusy = %d, want 100", got)
	}
	w.schedule(40, 2)
	if got := w.nextBusy(10, 1000); got != 40 {
		t.Fatalf("nextBusy = %d, want earliest 40", got)
	}
	if got := w.collect(40, nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("collect(40) = %v", got)
	}
	if got := w.nextBusy(41, 1000); got != 100 {
		t.Fatalf("nextBusy after collect = %d, want 100", got)
	}
}

// TestWheelNextBusyExactRevolution pins the aliasing cases: an entry
// scheduled exactly size cycles ahead shares its slot (and occupancy bit)
// with "now", and nextBusy must neither report it as due now nor lose it —
// across a full revolution of queries.
func TestWheelNextBusyExactRevolution(t *testing.T) {
	w := newWheel[int](16, 2)
	size := w.mask + 1 // 16
	now := int64(5)
	w.schedule(now+size, 42) // same slot as now, one revolution out
	if !w.busy(now) {
		t.Fatal("aliased slot must report busy (bitmap is an over-approximation)")
	}
	if got := w.nextBusy(now, 10*size); got != now+size {
		t.Fatalf("nextBusy = %d, want %d (not the aliased slot's current cycle)", got, now+size)
	}
	// Nothing fires until the entry's own cycle, even though its slot's
	// bit stays set the whole revolution.
	for c := now; c < now+size; c++ {
		if fired := w.collect(c, nil); len(fired) != 0 {
			t.Fatalf("cycle %d fired %v, want nothing before the revolution completes", c, fired)
		}
		if got := w.nextBusy(c, 10*size); got != now+size {
			t.Fatalf("cycle %d: nextBusy = %d, want %d", c, got, now+size)
		}
	}
	if fired := w.collect(now+size, nil); len(fired) != 1 || fired[0] != 42 {
		t.Fatalf("collect(%d) = %v, want [42]", now+size, fired)
	}
	if got := w.nextBusy(now+size, 10*size); got != now+11*size {
		t.Fatalf("drained wheel nextBusy = %d, want horizon", got)
	}
	if w.n != 0 {
		t.Fatalf("drained wheel still counts %d entries", w.n)
	}
}

// TestWheelBitmapWraparound schedules entries whose slot indices wrap both
// the ring and the occupancy bitmap's word boundary (slots 63/64 and the
// last slot), and checks the bits clear exactly when slots drain.
func TestWheelBitmapWraparound(t *testing.T) {
	w := newWheel[int](128, 1)
	size := w.mask + 1 // 128
	at := []int64{63, 64, size - 1, size, 2*size - 1}
	for i, a := range at {
		w.schedule(a, i)
	}
	if w.n != len(at) {
		t.Fatalf("entry count %d, want %d", w.n, len(at))
	}
	// Cycle size aliases slot 0; cycle 2*size-1 aliases slot size-1.
	var got []int
	for now := int64(0); now < 2*size; now++ {
		got = append(got, w.collect(now, nil)...)
	}
	if len(got) != len(at) {
		t.Fatalf("collected %v, want all %d entries", got, len(at))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("collected %v out of schedule order", got)
		}
	}
	for i := range w.bits {
		if w.bits[i] != 0 {
			t.Fatalf("bitmap word %d still set after draining: %b", i, w.bits[i])
		}
	}
	if w.n != 0 {
		t.Fatalf("drained wheel still counts %d entries", w.n)
	}
}

// stepWithInvariants single-steps a core, validating the event scheduler's
// structural invariants every cycle.
func stepWithInvariants(t *testing.T, c *Core, cycles int, label string) {
	t.Helper()
	if c.sched == nil {
		t.Fatalf("%s: core is not running the event scheduler", label)
	}
	for i := 0; i < cycles; i++ {
		c.Step()
		if msg := c.sched.checkInvariants(); msg != "" {
			t.Fatalf("%s: cycle %d: %s", label, i, msg)
		}
	}
}

// TestConsumerListUnlinkOnSquash runs squash-heavy workloads (branchy
// profiles under speculative scheduling, plus memory-order violations)
// while checking every cycle that squashFrom left no squashed µ-op on any
// consumer list and no corrupted back-links — the lists are walked through
// raw pointers, so a missed unlink would become a use-after-recycle.
func TestConsumerListUnlinkOnSquash(t *testing.T) {
	for _, tc := range []struct {
		wl     string
		preset string
	}{
		{"twolf", "SpecSched_4"},       // mispredict-heavy
		{"vortex", "SpecSched_4_Crit"}, // memory-order violations
		{"xalancbmk", "SpecSched_6"},   // deep replay window
		{"libquantum", "SpecSched_4"},  // miss replays
	} {
		p, err := trace.ByName(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Preset(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		c := MustNew(cfg, trace.New(p), p.Seed)
		stepWithInvariants(t, c, 12000, tc.preset+"/"+tc.wl)
		if c.run.Mispredicts == 0 {
			t.Fatalf("%s: no mispredictions — the squash path was never exercised", tc.wl)
		}
	}
}

// TestSchedInvariantsUnderSelectiveReplay covers the poison-propagation
// squash path, which re-parks transitive dependents of mis-scheduled loads.
func TestSchedInvariantsUnderSelectiveReplay(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replay = config.SelectiveReplay
	p, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, trace.New(p), p.Seed)
	stepWithInvariants(t, c, 12000, "selective/libquantum")
	if c.run.Replayed() == 0 {
		t.Fatal("no replays — the selective squash path was never exercised")
	}
}

// TestMemDepWaiterWakeup pins the store-waiter list behavior: a load
// predicted dependent on a store must not issue before the store executes,
// and must become issuable the cycle it does. Observed end to end through
// the memdep-subscription machinery on a store-to-load workload.
func TestMemDepWaiterWakeup(t *testing.T) {
	p, err := trace.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, trace.New(p), p.Seed)
	r := c.Run(5000, 20000)
	if r.LateOperands != 0 {
		t.Fatalf("late operands with memdep waiters: %d", r.LateOperands)
	}
	if r.MemOrderViolations > r.Committed/100 {
		t.Fatalf("memdep wakeups not containing violations: %d of %d",
			r.MemOrderViolations, r.Committed)
	}
}

// TestEventSchedulerWakeupCounters sanity-checks the new throughput
// diagnostics: the event scheduler must report wakeups and events, and
// the scan implementation must report none.
func TestEventSchedulerWakeupCounters(t *testing.T) {
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []config.SchedulerImpl{config.SchedEvent, config.SchedScan} {
		cfg, err := config.Preset("SpecSched_4")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler = impl
		c := MustNew(cfg, trace.New(p), p.Seed)
		r := c.Run(2000, 10000)
		if impl == config.SchedEvent {
			if r.SchedWakeups == 0 || r.SchedEvents == 0 {
				t.Fatalf("event scheduler reported no wakeups/events: %+v", r)
			}
		} else if r.SchedWakeups != 0 || r.SchedEvents != 0 {
			t.Fatalf("scan scheduler reported scheduler events: %+v", r)
		}
	}
}

// TestSubscribePanicsOnReadyUOp documents the subscribe precondition.
func TestSubscribePanicsOnReadyUOp(t *testing.T) {
	cfg, err := config.Preset("SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, trace.NewStreamSum(4<<10), 1)
	e := c.newInst()
	e.u = uop.UOp{Class: uop.ClassALU, Src1: uop.RegNone, Src2: uop.RegNone, Dest: uop.RegNone}
	e.src1Phys, e.src2Phys = -1, -1
	defer func() {
		if recover() == nil {
			t.Fatal("subscribe on a ready µ-op did not panic")
		}
	}()
	c.sched.subscribe(e)
}
