package core

import (
	"fmt"
	"math/bits"

	"specsched/internal/config"
	"specsched/internal/uop"
)

// This file implements the event-driven wakeup/select scheduler
// (config.SchedEvent). It models exactly the same machine as the scan
// scheduler in backend.go — the two must produce bit-identical statistics —
// but its simulator cost is proportional to *events* (issues, completions,
// wakeups, replays) instead of window size:
//
//   - Per-physical-register consumer lists: a µ-op whose ready() predicate
//     fails subscribes to the first unavailable source (a physical register
//     or a predicted store dependence) and sleeps until that source
//     publishes a wakeup, instead of being re-polled every cycle.
//   - An age-ordered ready queue (per-family occupancy bitmaps, readyBM):
//     the issue stage picks ready µ-ops oldest-first, matching the scan's
//     oldest-first selection exactly, and re-verifies ready() at pick time
//     when a promise was revised since enqueue, so that revised or
//     invalidated promises (replays) are honoured.
//   - Timing wheels keyed by cycle replace the per-cycle scans over
//     c.events (replay detections) and c.inflight (issue-to-execute
//     latches): register wakeups, FU completions, and scheduling-
//     misspeculation detections all fire in the cycle they are due.
//
// Readiness is not monotone under speculative scheduling — a load's promise
// can be revised later (bank conflict, miss) or withdrawn entirely (squash
// to the recovery buffer sets specReady to infinity) — so the structures
// are *candidate* sets, not truth: a stale pick re-checks ready() and
// re-subscribes on failure. Completeness holds because a µ-op only ever
// sleeps on a source whose specReady lies in the future, and every write
// that moves a specReady entry to a finite cycle schedules a wakeup.
//
// Stale pointers are handled with generation counters: squashed µ-ops are
// recycled through the inst pool one cycle after their squash, so the
// lazily-purged wheel entries snapshot inst.gen and are dropped on
// mismatch. Consumer lists and the ready bitmap are the exception — the
// lists are walked through raw pointers and bitmap slots are reused by the
// seq rollback — so squashFrom clears victims from both eagerly (unlink,
// dropReady).

// wheelItem is one scheduled entry; at disambiguates entries hashed onto
// the same slot from different wheel revolutions.
type wheelItem[T any] struct {
	at int64
	v  T
}

// wheel is a single-level timing wheel: a power-of-two ring of slots
// indexed by cycle. Entries beyond one revolution stay in their slot and
// are skipped (and retained) until their revolution comes around — an
// overflow list is unnecessary because collect compacts in place. A
// per-slot occupancy bitmap (two cache lines for a 1K-slot wheel) makes
// the every-cycle emptiness probe an L1 hit instead of a stroll through
// the 24-byte slot headers.
type wheel[T any] struct {
	mask  int64
	slots [][]wheelItem[T]
	bits  []uint64
	// n counts scheduled-but-uncollected entries across all slots, so the
	// quiescent-cycle skipper's nextBusy query is O(1) on an empty wheel
	// (the execute and replay wheels are empty through a deep stall).
	n int
}

// newWheel builds a wheel of at least minSize slots, each pre-sized to
// slotCap entries so the steady-state simulate loop never grows a slot
// (growth beyond slotCap still works; the enlarged backing is kept).
func newWheel[T any](minSize, slotCap int) wheel[T] {
	size := 8
	for size < minSize {
		size *= 2
	}
	w := wheel[T]{
		mask:  int64(size - 1),
		slots: make([][]wheelItem[T], size),
		bits:  make([]uint64, (size+63)/64),
	}
	if slotCap > 0 {
		backing := make([]wheelItem[T], size*slotCap)
		for i := range w.slots {
			w.slots[i] = backing[i*slotCap : i*slotCap : (i+1)*slotCap]
		}
	}
	return w
}

// busy reports whether the slot for cycle now holds any entries (of any
// revolution).
func (w *wheel[T]) busy(now int64) bool {
	i := now & w.mask
	return w.bits[i>>6]&(1<<uint(i&63)) != 0
}

// nextBusy returns the earliest cycle in [now, now+horizon] at which an
// entry is due, or now+horizon when nothing is scheduled in that range —
// the wheel's contribution to the quiescent-cycle skipper's "next
// interesting cycle". The occupancy bitmap alone over-approximates (a slot
// can hold only future-revolution entries), so each busy slot's entries are
// checked against their exact due cycle. Entries due before now cannot
// exist: every phase collects its wheel's due slot each executed cycle, and
// the skipper never jumps past the cycle this query returns.
func (w *wheel[T]) nextBusy(now, horizon int64) int64 {
	best := now + horizon
	if w.n == 0 {
		return best
	}
	for wi, word := range w.bits {
		for word != 0 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, it := range w.slots[slot] {
				if it.at >= now && it.at < best {
					best = it.at
					if best == now {
						return now
					}
				}
			}
		}
	}
	return best
}

// schedule inserts v to fire at cycle at (strictly in the future of the
// caller's current cycle; same-cycle work lands in the slot its phase is
// about to collect).
func (w *wheel[T]) schedule(at int64, v T) {
	i := at & w.mask
	w.bits[i>>6] |= 1 << uint(i&63)
	s := &w.slots[i]
	*s = append(*s, wheelItem[T]{at: at, v: v})
	w.n++
}

// collect appends every entry due at cycle now to dst, keeping future-
// revolution entries in place, and returns the extended dst.
func (w *wheel[T]) collect(now int64, dst []T) []T {
	i := now & w.mask
	s := w.slots[i]
	if len(s) == 0 {
		return dst
	}
	keep := s[:0]
	for _, it := range s {
		if it.at == now {
			dst = append(dst, it.v)
		} else {
			keep = append(keep, it)
		}
	}
	w.n -= len(s) - len(keep)
	w.slots[i] = keep
	if len(keep) == 0 {
		w.bits[i>>6] &^= 1 << uint(i&63)
	}
	return dst
}

// Functional-unit families, mirroring the budget classes of takeFU. The
// ready bitmap is segregated by family so that a cycle whose budget for a
// family is exhausted drops that family's words from the pick in O(1) — on
// port-saturated workloads (streaming loads, FP-bound codes) this is the
// difference between O(ready) and O(issued) select cost. A family is
// skipped exactly when takeFU would fail every µop in it, so selection
// order is unchanged.
const (
	famALU = iota
	famMulDiv
	famFP
	famFPMulDiv
	famLoad
	famStore
	numFam
)

func fuFamily(cl uop.Class) int {
	switch cl {
	case uop.ClassMul, uop.ClassDiv:
		return famMulDiv
	case uop.ClassFP:
		return famFP
	case uop.ClassFPMul, uop.ClassFPDiv:
		return famFPMulDiv
	case uop.ClassLoad:
		return famLoad
	case uop.ClassStore:
		return famStore
	default: // ALU, Branch, Nop
		return famALU
	}
}

// famBlocked reports whether every µop of family f would fail takeFU this
// cycle on budget alone (unit-occupancy checks — unpipelined divides —
// still run per µop in takeFU).
func famBlocked(f int, b *fuBudget) bool {
	switch f {
	case famALU:
		return b.alu == 0
	case famMulDiv:
		return b.mulDiv == 0
	case famFP:
		return b.fp == 0
	case famFPMulDiv:
		return b.fpMulDiv == 0
	case famLoad:
		return b.ldst == 0 || b.loads == 0
	default: // famStore
		return b.ldst == 0 || b.stores == 0
	}
}

// readyBM is the event scheduler's ready queue: per-family occupancy bitmaps over dispatch-sequence slots, with the hot
// per-candidate state packed into slot-indexed SoA arrays for cache
// density. A µ-op's slot is seq&mask; because squashFrom rolls the
// dispatch-sequence counter back over squashed ROB suffixes, live ROB
// seqs are always contiguous with span <= ROBEntries <= capacity, so the
// slotting never aliases two live µ-ops. Selection walks the occupancy
// words with bits.TrailingZeros64 in circular slot order starting at the
// ROB head's slot — which is exactly global age order, so the pick
// visits candidates in the same sequence as the scan scheduler.
//
// Unlike the generation-purged wheel entries, bits are cleared eagerly —
// at issue, at re-park (revised promise), and at squash (dropReady) —
// so a set bit always denotes a live, unissued, in-IQ candidate and the
// pick loop needs no generation or state checks.
type readyBM struct {
	mask   int64 // capacity-1; capacity is a power of two >= ROBEntries
	nwords int   // occupancy words per family (power of two)
	// words[f] is family f's occupancy bitmap; count[f] tracks its set
	// bits so empty families drop out of the pick in O(1).
	words [numFam][]uint64
	count [numFam]int
	// Slot-indexed SoA candidate state: the µ-op, its seq (invariant
	// checking), the revision epoch snapshotted at enqueue, and its
	// functional-unit family.
	slotInst  []*inst
	slotSeq   []int64
	slotEpoch []uint32
	slotFam   []uint8
}

func newReadyBM(robEntries int) *readyBM {
	size := 64
	for size < robEntries {
		size *= 2
	}
	bm := &readyBM{
		mask:      int64(size - 1),
		nwords:    size / 64,
		slotInst:  make([]*inst, size),
		slotSeq:   make([]int64, size),
		slotEpoch: make([]uint32, size),
		slotFam:   make([]uint8, size),
	}
	for f := range bm.words {
		bm.words[f] = make([]uint64, bm.nwords)
	}
	return bm
}

// set files e as a ready candidate of family f.
//
//specsched:hotpath
func (bm *readyBM) set(e *inst, f int, epoch uint32) {
	slot := e.seq & bm.mask
	bm.words[f][slot>>6] |= 1 << uint(slot&63)
	bm.count[f]++
	bm.slotInst[slot] = e
	bm.slotSeq[slot] = e.seq
	bm.slotEpoch[slot] = epoch
	bm.slotFam[slot] = uint8(f)
}

// clearSlot removes the candidate at slot (family f). Callers own the
// inReadyQ bookkeeping.
//
//specsched:hotpath
func (bm *readyBM) clearSlot(slot int64, f int) {
	bm.words[f][slot>>6] &^= 1 << uint(slot&63)
	bm.count[f]--
}

// execEntry is one issue-to-execute latch entry on the execute wheel.
type execEntry struct {
	e   *inst
	gen uint32
}

// eventSched holds all event-driven scheduler state for one core.
type eventSched struct {
	c *Core

	// bm is the age-ordered ready queue for IQ-side candidates,
	// segregated by functional-unit family (the recovery buffer keeps its
	// own age-ordered slice and replay-priority scan, per §3.1 — its size
	// is already event-proportional). readyTotal counts its set bits
	// across all families so the per-cycle idle check is one compare.
	bm         *readyBM
	readyTotal int

	// revEpoch advances whenever a published promise is revised — which
	// happens only when replay events fire (processEvents): a ready
	// source register cannot otherwise move back to the future while its
	// consumer is un-issued (its physical register cannot be reallocated
	// before the consumer commits, and first-time promises only concern
	// registers that were still infinity). Ready-queue entries enqueued at
	// the current epoch therefore need no pop-time ready() re-check.
	revEpoch uint32

	// consHead[p] heads the intrusive consumer list of physical register p.
	consHead []*inst
	// regWakeAt[p] is the cycle of the most recently scheduled wakeup for
	// p — a dedup hint so fan-out subscriptions don't multiply wheel
	// entries; correctness never depends on it.
	regWakeAt []int64

	// Each wheel is collected directly by the pipeline phase it feeds:
	// execWheel by execute, replayWheel by processEvents, regWheel by
	// issue. Same-cycle insertions land in the slot being collected later
	// in the same Step (detections during execute fire in this cycle's
	// processEvents; promises published during any phase are strictly
	// future), so no staging lists are needed.
	regWheel    wheel[int32]
	execWheel   wheel[execEntry]
	replayWheel wheel[replayEvent]

	// Scratch for per-cycle drains, squash walks, and poison propagation
	// (selective replay).
	regScratch   []int32
	firedScratch []replayEvent
	inflScratch  []*inst
	execScratch  []*inst
	poisonMark   []int64
	poisonEpoch  int64
}

func newEventSched(c *Core) *eventSched {
	n := c.rmap.TotalPhys()
	s := &eventSched{
		c:         c,
		consHead:  make([]*inst, n),
		regWakeAt: make([]int64, n),
		// Register wakeups can land a DRAM round trip (plus queueing) in
		// the future; one-K slots keep nearly all of them within a single
		// revolution.
		regWheel:    newWheel[int32](1024, 8),
		replayWheel: newWheel[replayEvent](replayHorizon(&c.cfg)+1, 4),
		// Issue-to-execute completions are bounded by D+1 cycles out.
		execWheel:  newWheel[execEntry](c.cfg.IssueToExecuteDelay+2, 2*c.cfg.IssueWidth),
		poisonMark: make([]int64, n),
		bm:         newReadyBM(c.cfg.ROBEntries),
	}
	for i := range s.regWakeAt {
		s.regWakeAt[i] = -1
	}
	return s
}

// replayBacklog is the L1D bank backlog, in cycles, that the replay wheel
// absorbs within one revolution. The presets' largest backlog on the
// built-in workloads is a few cycles.
const replayBacklog = 8

// replayHorizon is how far ahead of the current cycle the replay wheel is
// sized to hold its events. A detection fires at the load's hit-known
// cycle, its bank-arbitrated service cycle plus the L1 load-to-use latency
// minus one, so an event lands at most backlog + latency − 1 cycles ahead
// (5 on every preset and built-in workload). An event further out waits in
// its slot for its own revolution: correct, just not O(1).
func replayHorizon(cfg *config.CoreConfig) int {
	return replayBacklog + cfg.L1D.Latency - 1
}

// ---- consumer lists -------------------------------------------------------

// parkTarget evaluates e's sources in one scoreboard pass and picks the
// wakeup source to park on: an unready register (reg >= 0), an unexecuted
// predicted-dependence store (st != nil), or neither — e is ready. Among
// unready registers the one with the latest promise is preferred
// (withdrawn — i.e. infinite — beats finite): any currently-unready source
// keeps the candidate-set complete, and parking on the latest one
// minimizes wake-then-repark round trips for two-source µops. A satisfied
// memory dependence is memoized away (monotone while e lives, see ready).
func (s *eventSched) parkTarget(e *inst) (reg int, st *inst) {
	c := s.c
	best, bestT := -1, int64(-1)
	if e.src1Phys >= 0 {
		if t := c.specReady[e.src1Phys]; t > c.cycle {
			best, bestT = e.src1Phys, t
		}
	}
	if e.src2Phys >= 0 {
		if t := c.specReady[e.src2Phys]; t > c.cycle && t > bestT {
			best = e.src2Phys
		}
	}
	if best >= 0 {
		return best, nil
	}
	if e.memDepID >= 0 {
		if st := c.findStore(e.memDepID); st != nil && !st.executed {
			return -1, st
		}
		e.memDepID = -1
	}
	return -1, nil
}

// subscribe parks e on an unavailable source. Callers must have
// established that ready(e) is false at the current cycle.
func (s *eventSched) subscribe(e *inst) {
	switch reg, st := s.parkTarget(e); {
	case reg >= 0:
		s.subReg(e, reg)
	case st != nil:
		s.subStore(e, st)
	default:
		// ready() flipped between the caller's check and now — impossible
		// within one cycle (nothing runs in between), so treat as a bug.
		panic("core: subscribe called on a ready µ-op")
	}
}

func (s *eventSched) subReg(e *inst, p int) {
	e.waitKind = waitOnReg
	e.waitReg = p
	e.waitPrev = nil
	e.waitNext = s.consHead[p]
	if e.waitNext != nil {
		e.waitNext.waitPrev = e
	}
	s.consHead[p] = e
	// The register's availability cycle may already be known (a finite
	// promise): make sure a wakeup is scheduled for it.
	if t := s.c.specReady[p]; t != infinity && s.regWakeAt[p] != t {
		s.regWheel.schedule(t, int32(p))
		s.regWakeAt[p] = t
	}
}

func (s *eventSched) subStore(e *inst, st *inst) {
	e.waitKind = waitOnStore
	e.waitOn = st
	e.waitPrev = nil
	e.waitNext = st.memWaitHead
	if e.waitNext != nil {
		e.waitNext.waitPrev = e
	}
	st.memWaitHead = e
}

// unlink removes e from whichever wakeup list it is subscribed to.
func (s *eventSched) unlink(e *inst) {
	switch e.waitKind {
	case waitNone:
		return
	case waitOnReg:
		if e.waitPrev == nil {
			s.consHead[e.waitReg] = e.waitNext
		} else {
			e.waitPrev.waitNext = e.waitNext
		}
	case waitOnStore:
		if e.waitPrev == nil {
			e.waitOn.memWaitHead = e.waitNext
		} else {
			e.waitPrev.waitNext = e.waitNext
		}
	}
	if e.waitNext != nil {
		e.waitNext.waitPrev = e.waitPrev
	}
	e.waitKind = waitNone
	e.waitOn = nil
	e.waitPrev = nil
	e.waitNext = nil
}

// enqueue (re-)evaluates a dispatched or woken µ-op in one scoreboard
// pass: ready candidates join the ready queue; the rest park on their
// wakeup source (see parkTarget for the policy).
func (s *eventSched) enqueue(e *inst) {
	if e.squashed || e.inReadyQ {
		return
	}
	switch reg, st := s.parkTarget(e); {
	case reg >= 0:
		s.subReg(e, reg)
	case st != nil:
		s.subStore(e, st)
	default:
		e.inReadyQ = true
		s.bm.set(e, fuFamily(e.u.Class), s.revEpoch)
		s.readyTotal++
	}
}

// dropReady eagerly clears a squashed µ-op's ready-bitmap bit. The
// bitmap's slot will be reused as soon as squashFrom rolls the dispatch
// sequence back, so — unlike the generation-purged wheel entries —
// bitmap membership cannot be purged lazily.
func (s *eventSched) dropReady(e *inst) {
	if !e.inReadyQ {
		return
	}
	s.bm.clearSlot(e.seq&s.bm.mask, int(s.bm.slotFam[e.seq&s.bm.mask]))
	s.readyTotal--
}

// wakeReg flushes register p's consumer list through enqueue.
func (s *eventSched) wakeReg(p int) {
	e := s.consHead[p]
	s.consHead[p] = nil
	for e != nil {
		next := e.waitNext
		e.waitKind = waitNone
		e.waitPrev = nil
		e.waitNext = nil
		s.c.run.SchedWakeups++
		s.enqueue(e)
		e = next
	}
}

// onStoreExecuted flushes the memory-dependence waiters of a store the
// moment it executes — the cycle scan-mode ready() would first see
// st.executed.
func (s *eventSched) onStoreExecuted(st *inst) {
	e := st.memWaitHead
	st.memWaitHead = nil
	for e != nil {
		next := e.waitNext
		e.waitKind = waitNone
		e.waitOn = nil
		e.waitPrev = nil
		e.waitNext = nil
		s.c.run.SchedWakeups++
		s.enqueue(e)
		e = next
	}
}

// onPublish is the hook behind every finite specReady write: dependents of
// p need a wakeup at cycle t. Infinity writes (rename, squash-to-buffer)
// schedule nothing — consumers stay parked until a finite promise appears.
func (s *eventSched) onPublish(p int, t int64) {
	if t == infinity || s.consHead[p] == nil || s.regWakeAt[p] == t {
		return
	}
	if t <= s.c.cycle {
		// All finite publications promise at least cycle+1 (minimum
		// latency is one cycle); a same-or-past-cycle publication would
		// mean a wakeup silently missed.
		panic(fmt.Sprintf("core: specReady publication for r%d at cycle %d not in the future (cycle %d)",
			p, t, s.c.cycle))
	}
	s.regWheel.schedule(t, int32(p))
	s.regWakeAt[p] = t
}

// onIssue latches an issued µ-op on the execute wheel (replacing the
// c.inflight slice).
func (s *eventSched) onIssue(e *inst) {
	s.execWheel.schedule(e.execCycle, execEntry{e: e, gen: e.gen})
}

// scheduleReplay files a scheduling-misspeculation detection (replacing the
// c.events slice). Detections are created during execute with detect >=
// the current cycle; same-cycle ones land in the slot this cycle's
// processEvents is about to collect.
func (s *eventSched) scheduleReplay(ev replayEvent) {
	ev.gen = ev.load.gen
	s.replayWheel.schedule(ev.detect, ev)
}

// ---- pipeline phases ------------------------------------------------------

// liveExec reports whether a popped execute-wheel entry still denotes the
// issue it was filed for (the µ-op may have been squashed, replayed to the
// recovery buffer, or recycled for a different dynamic µ-op since).
func liveExec(ent execEntry, now int64) bool {
	e := ent.e
	return e.gen == ent.gen && e.issued && !e.executed && e.execCycle == now
}

// execute drains this cycle's issue-to-execute latches from the execute
// wheel. Mirrors the scan execute(): collect first, then run with
// per-entry squash re-checks so an older µ-op squashing mid-cycle cancels
// younger same-cycle executions.
func (s *eventSched) execute() {
	c := s.c
	now := c.cycle
	if !s.execWheel.busy(now) {
		return
	}
	slot := &s.execWheel.slots[now&s.execWheel.mask]
	execs := s.execScratch[:0]
	keep := (*slot)[:0]
	for _, it := range *slot {
		if it.at != now {
			keep = append(keep, it) // future revolution
			continue
		}
		if liveExec(it.v, now) && !it.v.e.squashed {
			execs = append(execs, it.v.e)
		}
	}
	s.execWheel.n -= len(*slot) - len(keep)
	*slot = keep
	if len(keep) == 0 {
		i := now & s.execWheel.mask
		s.execWheel.bits[i>>6] &^= 1 << uint(i&63)
	}
	c.run.SchedEvents += int64(len(execs))
	for _, e := range execs {
		if e.squashed {
			continue // squashed by an older µ-op executing this cycle
		}
		c.executeOne(e)
	}
	s.execScratch = execs[:0]
}

// processEvents fires this cycle's pending schedule-misspeculation events.
// Identical coalescing semantics to the scan version: one squash per cycle,
// classified by the first triggering cause.
func (s *eventSched) processEvents() {
	c := s.c
	if !s.replayWheel.busy(c.cycle) {
		return
	}
	pending := s.replayWheel.collect(c.cycle, s.firedScratch[:0])
	if len(pending) == 0 {
		s.firedScratch = pending
		return
	}
	triggered := false
	var cause replayCause
	fired := pending[:0]
	for _, ev := range pending {
		if ev.gen != ev.load.gen || ev.load.squashed {
			continue // dropped with its load
		}
		c.run.SchedEvents++
		if ev.load.destPhys >= 0 {
			w := ev.reviseTo
			if w <= c.cycle {
				w = c.cycle + 1
			}
			c.publishSpecReady(ev.load.destPhys, w)
		}
		if ev.cause == causeBank {
			c.run.BankReplayEvents++
		} else {
			c.run.MissReplayEvents++
		}
		fired = append(fired, ev)
		if !triggered {
			triggered = true
			cause = ev.cause
		}
	}
	if len(fired) > 0 {
		// Fired events revised promises (and a triggered squash withdraws
		// more): previously verified ready-queue entries must re-check.
		s.revEpoch++
	}
	if triggered {
		if c.cfg.Replay == config.SelectiveReplay {
			s.selectiveSquash(fired)
		} else {
			s.replaySquash(cause)
		}
	}
	s.firedScratch = fired[:0]
}

// collectInflight snapshots the live in-flight (issued, not yet executed)
// µ-ops in issue order by walking the execute wheel's future slots. At
// processEvents time every in-flight µ-op was issued in
// [cycle-D, cycle-1], i.e. executes in [cycle+1, cycle+D]; within a slot,
// entries sit in doIssue order, and slots ascend in issue cycle, so the
// walk reproduces the scan's inflight list order exactly.
func (s *eventSched) collectInflight() []*inst {
	c := s.c
	out := s.inflScratch[:0]
	for t := c.cycle + 1; t <= c.cycle+c.delay(); t++ {
		for _, it := range s.execWheel.slots[t&s.execWheel.mask] {
			if it.at == t && liveExec(it.v, t) && !it.v.e.squashed {
				out = append(out, it.v.e)
			}
		}
	}
	s.inflScratch = out
	return out
}

// selectiveSquash is the event-driven counterpart of the scan
// selectiveSquash: per fired event, only transitive dependents of the
// mis-scheduled load are cancelled into the recovery buffer. Poison
// propagation uses an epoch-stamped mark array instead of a per-event map.
func (s *eventSched) selectiveSquash(fired []replayEvent) {
	c := s.c
	for _, ev := range fired {
		if ev.load.destPhys < 0 {
			continue
		}
		s.poisonEpoch++
		epoch := s.poisonEpoch
		s.poisonMark[ev.load.destPhys] = epoch
		count := int64(0)
		for _, e := range s.collectInflight() {
			dep := (e.src1Phys >= 0 && s.poisonMark[e.src1Phys] == epoch) ||
				(e.src2Phys >= 0 && s.poisonMark[e.src2Phys] == epoch)
			if !dep {
				continue
			}
			if e.destPhys >= 0 {
				s.poisonMark[e.destPhys] = s.poisonEpoch
				c.publishSpecReady(e.destPhys, infinity)
				c.actReady[e.destPhys] = infinity
			}
			e.issued = false
			e.inBuffer = true
			e.specWoken = false
			e.shifted = false
			c.insertRecovery(e)
			count++
		}
		if ev.cause == causeBank {
			c.run.ReplayedBank += count
		} else {
			c.run.ReplayedMiss += count
		}
	}
}

// replaySquash cancels the D in-flight issue groups (Alpha-style squash),
// exactly as the scan version does over c.inflight.
func (s *eventSched) replaySquash(cause replayCause) {
	c := s.c
	lo := c.cycle - c.delay()
	count := int64(0)
	for _, e := range s.collectInflight() {
		if e.issueCycle < lo || e.issueCycle >= c.cycle {
			continue
		}
		e.issued = false
		e.inBuffer = true
		if e.destPhys >= 0 {
			c.publishSpecReady(e.destPhys, infinity)
			c.actReady[e.destPhys] = infinity
		}
		e.specWoken = false
		e.shifted = false
		c.insertRecovery(e)
		count++
	}
	if cause == causeBank {
		c.run.ReplayedBank += count
	} else {
		c.run.ReplayedMiss += count
	}
	c.issueBlock = c.cycle
}

// issue is the event-driven select stage: due register wakeups flush their
// consumer lists, the recovery buffer replays with priority (shared with
// the scan implementation), and the remaining width picks from the
// age-ordered ready bitmap — re-verifying ready() at pick so revised
// promises park the µ-op back on a consumer list.
func (s *eventSched) issue() {
	c := s.c
	// Fire due register wakeups — even on a replay-blocked cycle (wakeup
	// is not select: the scan implementation implicitly re-polls every
	// cycle, so the blocked cycle must not swallow these). A wakeup is
	// valid only if the register's promise still stands (specReady <= now);
	// otherwise the promise was revised or withdrawn and consumers stay
	// parked — the revision itself scheduled (or will schedule) their next
	// wakeup.
	if s.regWheel.busy(c.cycle) {
		regs := s.regWheel.collect(c.cycle, s.regScratch[:0])
		for _, p := range regs {
			if c.specReady[p] <= c.cycle {
				c.run.SchedEvents++
				s.wakeReg(int(p))
			}
		}
		s.regScratch = regs[:0]
	}

	if c.cycle == c.issueBlock {
		return
	}

	// Idle fast path: nothing schedulable anywhere (common on memory-bound
	// phases, where the window is full but asleep). Checked before any of
	// the select state below exists — at 10+ cycles per committed µ-op,
	// per-cycle fixed cost is what dominates simulator time.
	if s.readyTotal == 0 && len(c.recovery) == 0 {
		return
	}

	c.loadBanksThisCycle = c.loadBanksThisCycle[:0]

	budget := c.newBudget()
	width := c.cfg.IssueWidth
	loadsIssued := 0

	// Recovery buffer: replay with priority, oldest first (shared helper —
	// identical semantics in both scheduler implementations).
	width = c.issueRecovery(&budget, width, &loadsIssued)

	s.pickBitmap(&budget, width, &loadsIssued)
}

// pickBitmap is the bitmap select stage: one circular pass over the
// occupancy words of the budget-eligible families, oldest candidate
// first. The pass starts at the ROB head's slot; the base word is
// visited twice — masked to its high bits first and its low bits last —
// so within-word bit order never yields a younger candidate before an
// older one. Families whose per-cycle budget is exhausted drop out of
// the union wholesale, exactly the candidates takeFU would reject one by
// one (budgets only decrease within a cycle).
//
//specsched:hotpath
func (s *eventSched) pickBitmap(budget *fuBudget, width int, loadsIssued *int) {
	c := s.c
	bm := s.bm
	var act [numFam]int
	na := 0
	for f := 0; f < numFam; f++ {
		if bm.count[f] > 0 && !famBlocked(f, budget) {
			act[na] = f
			na++
		}
	}
	if na == 0 || width <= 0 {
		return
	}
	// A non-empty bitmap implies a non-empty ROB (every candidate is a
	// live ROB entry), so the head's slot anchors the circular scan.
	baseSlot := c.rob[0].seq & bm.mask
	wi := int(baseSlot >> 6)
	wmask := bm.nwords - 1
	baseOff := uint(baseSlot & 63)
	visits := bm.nwords
	if baseOff != 0 {
		visits++
	}
	for v := 0; v < visits && width > 0 && na > 0; v++ {
		var cur uint64
		for a := 0; a < na; a++ {
			cur |= bm.words[act[a]][wi]
		}
		if v == 0 {
			cur &= ^uint64(0) << baseOff
		} else if v == visits-1 && baseOff != 0 {
			cur &= ^(^uint64(0) << baseOff)
		}
		c.run.SchedBitmapWords++
		for cur != 0 && width > 0 {
			slot := int64(wi<<6 + bits.TrailingZeros64(cur))
			cur &= cur - 1
			c.run.SchedBitmapPicks++
			f := int(bm.slotFam[slot])
			if famBlocked(f, budget) {
				// f's budget ran out mid-pass: drop it from the union and
				// mask its remaining bits out of the current word.
				for a := 0; a < na; a++ {
					if act[a] == f {
						na--
						act[a] = act[na]
						break
					}
				}
				if na == 0 {
					return
				}
				cur &^= bm.words[f][wi]
				continue
			}
			e := bm.slotInst[slot]
			if bm.slotEpoch[slot] != s.revEpoch {
				if !c.ready(e) {
					// A promise was revised since enqueue and this
					// candidate's source is no longer available: park on a
					// consumer list.
					bm.clearSlot(slot, f)
					e.inReadyQ = false
					s.readyTotal--
					s.subscribe(e)
					continue
				}
				// Still ready under the current epoch: refresh so later
				// cycles skip the re-check (readiness cannot regress
				// without another revision).
				bm.slotEpoch[slot] = s.revEpoch
			}
			if !c.takeFU(e, budget) {
				// Unit occupied (divide spacing): stays ready — only this
				// cycle's working copy consumed the bit.
				continue
			}
			bm.clearSlot(slot, f)
			e.inReadyQ = false
			s.readyTotal--
			c.doIssue(e, loadsIssued)
			width--
		}
		wi = (wi + 1) & wmask
	}
}

// ---- invariant checking (tests) ------------------------------------------

// checkInvariants validates the scheduler's structural invariants; tests
// call it while single-stepping cores. It returns an error description or
// "" when consistent.
func (s *eventSched) checkInvariants() string {
	for p, head := range s.consHead {
		var prev *inst
		for e := head; e != nil; e = e.waitNext {
			switch {
			case e.squashed:
				return fmt.Sprintf("squashed µ-op %d still subscribed to r%d", e.dynID, p)
			case e.waitKind != waitOnReg || e.waitReg != p:
				return fmt.Sprintf("µ-op %d on r%d's consumer list but waitKind=%d waitReg=%d",
					e.dynID, p, e.waitKind, e.waitReg)
			case e.waitPrev != prev:
				return fmt.Sprintf("µ-op %d on r%d's consumer list has a broken back-link", e.dynID, p)
			case e.inReadyQ:
				return fmt.Sprintf("µ-op %d both subscribed to r%d and in the ready queue", e.dynID, p)
			}
			prev = e
		}
	}
	// Live ROB seqs must be contiguous (the alias-freedom argument) …
	for i := 1; i < len(s.c.rob); i++ {
		if s.c.rob[i].seq != s.c.rob[i-1].seq+1 {
			return fmt.Sprintf("ROB seqs not contiguous at %d: %d then %d",
				i, s.c.rob[i-1].seq, s.c.rob[i].seq)
		}
	}
	if n := len(s.c.rob); n > 0 && s.c.dispSeq != s.c.rob[n-1].seq+1 {
		return fmt.Sprintf("dispSeq %d does not follow ROB tail seq %d",
			s.c.dispSeq, s.c.rob[n-1].seq)
	}
	// … and every set bit must denote a live, unissued, in-IQ
	// candidate whose SoA row matches (the eager-clearing contract).
	total := 0
	for f := range s.bm.words {
		n := 0
		for wi, w := range s.bm.words[f] {
			for w != 0 {
				slot := int64(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
				n++
				e := s.bm.slotInst[slot]
				switch {
				case e == nil:
					return fmt.Sprintf("family %d bit at slot %d with no µ-op", f, slot)
				case e.seq&s.bm.mask != slot || s.bm.slotSeq[slot] != e.seq:
					return fmt.Sprintf("bitmap slot %d aliased: µ-op %d has seq %d (slotSeq %d)",
						slot, e.dynID, e.seq, s.bm.slotSeq[slot])
				case e.squashed:
					return fmt.Sprintf("squashed µ-op %d still in the ready bitmap", e.dynID)
				case !e.inReadyQ:
					return fmt.Sprintf("bitmap candidate µ-op %d without inReadyQ", e.dynID)
				case e.issued || e.inBuffer || e.executed || !e.inIQ:
					return fmt.Sprintf("bitmap candidate µ-op %d is not an unissued IQ entry", e.dynID)
				case int(s.bm.slotFam[slot]) != fuFamily(e.u.Class) || f != fuFamily(e.u.Class):
					return fmt.Sprintf("bitmap candidate µ-op %d filed under family %d, class wants %d",
						e.dynID, f, fuFamily(e.u.Class))
				}
			}
		}
		if n != s.bm.count[f] {
			return fmt.Sprintf("family %d bitmap count %d, %d bits set", f, s.bm.count[f], n)
		}
		total += n
	}
	if total != s.readyTotal {
		return fmt.Sprintf("readyTotal %d, %d bitmap bits set", s.readyTotal, total)
	}
	return ""
}

// wakeListLen counts subscribers of register p (tests).
func (s *eventSched) wakeListLen(p int) int {
	n := 0
	for e := s.consHead[p]; e != nil; e = e.waitNext {
		n++
	}
	return n
}
