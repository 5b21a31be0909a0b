package core

import (
	"specsched/internal/cache"
	"specsched/internal/config"
	"specsched/internal/uop"
)

// fuBudget tracks the per-cycle functional unit and port capacity during
// the issue phase.
type fuBudget struct {
	alu, mulDiv, fp, fpMulDiv int
	ldst, loads, stores       int
}

func (c *Core) newBudget() fuBudget {
	return fuBudget{
		alu:      c.cfg.NumALU,
		mulDiv:   c.cfg.NumMulDiv,
		fp:       c.cfg.NumFP,
		fpMulDiv: c.cfg.NumFPMulDiv,
		ldst:     c.cfg.NumLdStPorts,
		loads:    c.cfg.MaxLoadsPerCycle,
		stores:   c.cfg.MaxStoresPerCycle,
	}
}

// takeFU reserves a functional unit and port for e, returning false when
// the required resource is exhausted this cycle. Unpipelined divide units
// additionally enforce an issue-spacing window.
func (c *Core) takeFU(e *inst, b *fuBudget) bool {
	switch e.u.Class {
	case uop.ClassALU, uop.ClassBranch, uop.ClassNop:
		if b.alu == 0 {
			return false
		}
		b.alu--
	case uop.ClassMul:
		if b.mulDiv == 0 || c.divFree > c.cycle {
			return false
		}
		b.mulDiv--
	case uop.ClassDiv:
		if b.mulDiv == 0 || c.divFree > c.cycle {
			return false
		}
		b.mulDiv--
		c.divFree = c.cycle + int64(uop.ClassDiv.Latency())
	case uop.ClassFP:
		if b.fp == 0 {
			return false
		}
		b.fp--
	case uop.ClassFPMul:
		if b.fpMulDiv == 0 {
			return false
		}
		b.fpMulDiv--
	case uop.ClassFPDiv:
		unit := -1
		for i := range c.fpDivFree {
			if c.fpDivFree[i] <= c.cycle {
				unit = i
				break
			}
		}
		if b.fpMulDiv == 0 || unit < 0 {
			return false
		}
		b.fpMulDiv--
		c.fpDivFree[unit] = c.cycle + int64(uop.ClassFPDiv.Latency())
	case uop.ClassLoad:
		if b.ldst == 0 || b.loads == 0 {
			return false
		}
		b.ldst--
		b.loads--
	case uop.ClassStore:
		if b.ldst == 0 || b.stores == 0 {
			return false
		}
		b.ldst--
		b.stores--
	}
	return true
}

// ready reports whether every source of e is (speculatively) available and
// any predicted memory dependence is satisfied.
func (c *Core) ready(e *inst) bool {
	if e.src1Phys >= 0 && c.specReady[e.src1Phys] > c.cycle {
		return false
	}
	if e.src2Phys >= 0 && c.specReady[e.src2Phys] > c.cycle {
		return false
	}
	if e.memDepID >= 0 {
		if s := c.findStore(e.memDepID); s != nil && !s.executed {
			return false
		}
		// Memoize the satisfied dependence: it is monotone while e lives
		// (the store can only stay executed or leave the SQ; a squash that
		// refetches e builds a fresh inst with a fresh memDepID), so the
		// repeated SQ binary searches — every recovery-buffer poll, every
		// scan-mode IQ pass — collapse to one. The event-driven enqueue
		// path memoizes identically (see parkTarget).
		e.memDepID = -1
	}
	return true
}

func (c *Core) findStore(dynID int64) *inst {
	if i := ageSearch(c.sq, dynID-1); i < len(c.sq) && c.sq[i].dynID == dynID {
		return c.sq[i]
	}
	return nil
}

// issueRecovery replays the recovery buffer with priority, oldest first.
// The buffer is age-ordered; not-yet-ready entries (dependents waiting on
// a revised load promise) are skipped so independent replayed work keeps
// flowing — the property Kim & Lipasti identify as essential for any
// usable replay scheme. Shared verbatim by both scheduler implementations
// (the buffer's size is already event-proportional). Returns the remaining
// issue width.
func (c *Core) issueRecovery(budget *fuBudget, width int, loadsIssued *int) int {
	if len(c.recovery) == 0 {
		return width
	}
	rest := c.recovery[:0]
	for i, e := range c.recovery {
		if e.squashed {
			continue
		}
		if width == 0 {
			rest = append(rest, c.recovery[i:]...)
			break
		}
		if !c.ready(e) || !c.takeFU(e, budget) {
			rest = append(rest, e)
			continue
		}
		e.inBuffer = false
		c.doIssue(e, loadsIssued)
		width--
	}
	c.recovery = rest
	return width
}

// issue selects up to IssueWidth µ-ops: the recovery buffer replays first
// (FIFO, head group only — §3.1), then the scheduler fills the remaining
// slots oldest-first. This is the scan implementation (config.SchedScan):
// it re-evaluates ready() for every IQ entry every cycle.
func (c *Core) issue() {
	if c.cycle == c.issueBlock {
		return
	}
	c.loadBanksThisCycle = c.loadBanksThisCycle[:0]
	// Compact the IQ view (entries released at issue or execute).
	iq := c.iq[:0]
	for _, e := range c.iq {
		if e.inIQ {
			iq = append(iq, e)
		}
	}
	c.iq = iq

	budget := c.newBudget()
	width := c.cfg.IssueWidth
	loadsIssued := 0

	width = c.issueRecovery(&budget, width, &loadsIssued)

	// Scheduler fills the holes, oldest first.
	for _, e := range c.iq {
		if width == 0 {
			break
		}
		if e.issued || e.inBuffer || e.executed {
			continue
		}
		if !c.ready(e) {
			continue
		}
		if !c.takeFU(e, &budget) {
			continue
		}
		c.doIssue(e, &loadsIssued)
		width--
	}
}

// doIssue moves e into the issue-to-execute latches and publishes its
// wakeup promise.
func (c *Core) doIssue(e *inst, loadsIssued *int) {
	e.issued = true
	e.timesIssued++
	e.issueCycle = c.cycle
	e.execCycle = c.cycle + c.delay() + 1
	if c.sched != nil {
		c.sched.onIssue(e)
	} else {
		c.inflight = append(c.inflight, e)
	}
	c.run.Issued++
	if e.timesIssued == 1 {
		c.run.Unique++
	}

	if e.destPhys >= 0 {
		var p int64
		switch {
		case e.isLoad():
			if c.allowSpecWakeup(e) {
				e.specWoken = true
				lat := c.l1.LoadToUse()
				if *loadsIssued >= 1 && c.shiftSecondLoad(e) {
					e.shifted = true
					lat++
				}
				p = c.cycle + lat
				c.run.LoadsSpecWakeup++
			} else {
				e.specWoken = false
				p = infinity
				c.run.LoadsDelayedWakeup++
			}
		default:
			p = c.cycle + int64(e.u.Class.Latency())
		}
		e.promise = p
		c.publishSpecReady(e.destPhys, p)
	}
	if e.isLoad() {
		*loadsIssued++
		if c.cfg.BankPredictShift {
			b, _ := c.bankp.Predict(e.u.PC)
			c.loadBanksThisCycle = append(c.loadBanksThisCycle, b)
		}
	}

	// Non-memory µ-ops release their IQ entry at issue under the
	// recovery-buffer and selective schemes (the Pentium 4's "issued
	// instructions immediately release their entry", §2.1.1); everything
	// retains it under IQ retention.
	if e.inIQ && c.cfg.Replay != config.IQRetention && !e.isMem() {
		e.inIQ = false
		c.iqCount--
	}
}

// addReplayEvent files a scheduling-misspeculation detection with whichever
// scheduler implementation is active.
func (c *Core) addReplayEvent(ev replayEvent) {
	if c.sched != nil {
		c.sched.scheduleReplay(ev)
		return
	}
	c.events = append(c.events, ev)
}

// execute drains the issue-to-execute latches whose time has come (scan
// implementation; the event-driven one pops the execute wheel instead).
func (c *Core) execute() {
	if len(c.inflight) == 0 {
		return
	}
	var execs []*inst
	rest := c.inflight[:0]
	for _, e := range c.inflight {
		if e.execCycle == c.cycle && !e.squashed {
			execs = append(execs, e)
		} else if !e.squashed {
			rest = append(rest, e)
		}
	}
	c.inflight = rest
	for _, e := range execs {
		if e.squashed {
			continue // squashed by an older µ-op executing this cycle
		}
		c.executeOne(e)
	}
}

func (c *Core) executeOne(e *inst) {
	e.executed = true
	// Release the IQ entry (memory µ-ops under the recovery-buffer
	// scheme; everything under IQ retention).
	if e.inIQ {
		e.inIQ = false
		c.iqCount--
	}

	// Defensive scoreboard check: promises are exact in this model, so a
	// late operand indicates a modelling bug; it is counted and the
	// completion time stretched to stay causally consistent.
	lateBy := int64(0)
	if e.src1Phys >= 0 && c.actReady[e.src1Phys] > c.cycle {
		lateBy = max(lateBy, c.actReady[e.src1Phys]-c.cycle)
	}
	if e.src2Phys >= 0 && c.actReady[e.src2Phys] > c.cycle {
		lateBy = max(lateBy, c.actReady[e.src2Phys]-c.cycle)
	}
	if lateBy > 0 {
		c.run.LateOperands++
	}

	switch {
	case e.isBranch():
		c.resolveBranch(e)
	case e.isLoad():
		c.executeLoad(e, lateBy)
	case e.isStore():
		c.executeStore(e)
	default:
		e.doneCycle = c.cycle + lateBy + int64(e.u.Class.Latency())
		if e.destPhys >= 0 {
			c.actReady[e.destPhys] = e.doneCycle
		}
	}
}

func (c *Core) resolveBranch(e *inst) {
	e.doneCycle = c.cycle + 1
	c.run.Branches++
	taken := e.u.Taken
	c.tage.Update(e.u.PC, taken, e.br.pred)
	if e.mispred {
		c.run.Mispredicts++
		c.squashFrom(e.dynID, false)
		// Rewind the direction history to just before this branch and
		// record the true outcome.
		c.tage.RestoreFrom(&e.br.snap)
		c.tage.UpdateHistory(taken)
		if taken {
			c.btb.Insert(e.u.PC, e.u.Target)
		}
		c.wrongPath = false
		c.fetchResume = c.cycle + redirectBubble
	} else if taken {
		c.btb.Insert(e.u.PC, e.u.Target)
	}
}

func (c *Core) executeLoad(e *inst, lateBy int64) {
	// Hit/miss statistics cover the correct path only (the paper reports
	// committed-load behaviour); the global counter and bank arbitration
	// see every access, wrong path included.
	if !e.u.WrongPath {
		c.run.Loads++
	}
	c.loadThisCycle = true
	var res cache.LoadResult
	forwarded := false
	if s := c.youngestOlderStoreSameQW(e); s != nil && s.executed {
		// Store-to-load forwarding from the store queue: same latency as
		// an L1 hit, no bank access.
		forwarded = true
		e.loadHit = true
		e.doneCycle = c.cycle + lateBy + c.l1.LoadToUse()
		if !e.u.WrongPath {
			c.run.L1Hits++
		}
	} else {
		res = c.l1.Load(e.u.Addr, e.u.PC, c.cycle)
		if c.cfg.BankPredictShift {
			c.bankp.Update(e.u.PC, c.l1.BankOf(e.u.Addr))
		}
		e.loadHit = res.Hit
		e.doneCycle = max(res.DataReady, c.cycle+lateBy+c.l1.LoadToUse())
		if !res.Hit {
			c.missThisCycle = true
		}
		if !e.u.WrongPath {
			if res.Hit {
				c.run.L1Hits++
			} else {
				c.run.L1Misses++
			}
		}
		if res.BankDelayed {
			c.run.BankConflicts++
		}
	}
	if e.destPhys >= 0 {
		c.actReady[e.destPhys] = e.doneCycle
	}

	if e.specWoken {
		// Scheduling misspeculation: the data arrives after the promise
		// made to dependents (promise + D + 1).
		if e.doneCycle > e.promise+c.delay()+1 && !forwarded {
			promisedData := e.promise + c.delay() + 1
			if res.BankDelayed {
				// The conflict is discovered at arbitration (now); the
				// re-promise still assumes a hit, after the delay.
				hitDone := res.ServiceCycle + c.l1.LoadToUse()
				if hitDone > promisedData {
					c.addReplayEvent(replayEvent{
						detect:   c.cycle,
						reviseTo: hitDone - c.delay() - 1,
						cause:    causeBank,
						load:     e,
					})
				}
			}
			if e.doneCycle > res.ServiceCycle+c.l1.LoadToUse() ||
				!res.BankDelayed {
				// Miss (or late in-flight fill): discovered one cycle
				// before the L1 data would have returned (footnote 2).
				detect := res.HitKnown
				if detect < c.cycle {
					detect = c.cycle
				}
				c.addReplayEvent(replayEvent{
					detect:   detect,
					reviseTo: e.doneCycle - c.delay() - 1,
					cause:    causeMiss,
					load:     e,
				})
			}
		}
	} else if e.destPhys >= 0 {
		// Conservative scheduling: dependents wake when the hit/miss
		// outcome is known, one cycle before the data (Fig. 2 top).
		w := e.doneCycle - 1
		if w <= c.cycle {
			w = c.cycle + 1
		}
		c.publishSpecReady(e.destPhys, w)
	}
}

func (c *Core) executeStore(e *inst) {
	e.doneCycle = c.cycle + 1
	if e.destPhys >= 0 {
		// Stores normally have no destination; publish one defensively
		// so a mis-built µ-op cannot wedge the scoreboard.
		c.actReady[e.destPhys] = e.doneCycle
	}
	c.ss.StoreExecuted(e.u.PC, e.dynID)
	if c.sched != nil {
		// Memory-dependence wakeup: µ-ops predicted to order after this
		// store become schedulable the cycle it executes.
		c.sched.onStoreExecuted(e)
	}

	// Memory-order violation: a younger load to the same quadword already
	// executed and read stale data. Squash-refetch from that load and
	// train Store Sets (§3.1 "Store Sets"). The LQ is age-ordered, so the
	// scan starts past the younger-than boundary and the first match is
	// the oldest violator.
	var victim *inst
	for i := ageSearch(c.lq, e.dynID); i < len(c.lq); i++ {
		ld := c.lq[i]
		if ld.executed && !ld.squashed && ld.quadword() == e.quadword() {
			victim = ld
			break
		}
	}
	if victim != nil {
		c.run.MemOrderViolations++
		c.ss.Violation(victim.u.PC, e.u.PC)
		c.squashFrom(victim.dynID, true)
		c.wrongPath = false
		c.fetchResume = c.cycle + redirectBubble
	}
}

// youngestOlderStoreSameQW walks the age-ordered SQ backwards from the
// load's age boundary; the first same-quadword store found is the youngest
// older one.
func (c *Core) youngestOlderStoreSameQW(ld *inst) *inst {
	for i := ageSearch(c.sq, ld.dynID) - 1; i >= 0; i-- {
		if s := c.sq[i]; s.quadword() == ld.quadword() {
			return s
		}
	}
	return nil
}

// ageSearch returns the index of the first entry of a dynID-ascending
// queue younger than dynID (i.e. with a larger dynID).
func ageSearch(q []*inst, dynID int64) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := (lo + hi) / 2
		if q[mid].dynID <= dynID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// processEvents fires pending schedule-misspeculation events whose
// detection cycle has arrived. Multiple events in one cycle coalesce into
// a single squash, classified by the first cause.
func (c *Core) processEvents() {
	if len(c.events) == 0 {
		return
	}
	triggered := false
	var cause replayCause
	var fired []replayEvent
	rest := c.events[:0]
	for _, ev := range c.events {
		switch {
		case ev.load.squashed:
			// Dropped with its load.
		case ev.detect > c.cycle:
			rest = append(rest, ev)
		default:
			// Publish the event's revised timing so dependents
			// reschedule accordingly.
			if ev.load.destPhys >= 0 {
				w := ev.reviseTo
				if w <= c.cycle {
					w = c.cycle + 1
				}
				c.specReady[ev.load.destPhys] = w
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
	}
	c.events = rest
	if triggered {
		if c.cfg.Replay == config.SelectiveReplay {
			c.selectiveSquash(fired)
		} else {
			c.replaySquash(cause)
		}
	}
}

// selectiveSquash implements Pentium-4-style selective replay (§2.1.1):
// for each fired event, only the in-flight µ-ops transitively dependent on
// the mis-scheduled load are cancelled into the recovery buffer. No issue
// cycle is lost; independent work is untouched.
func (c *Core) selectiveSquash(fired []replayEvent) {
	for _, ev := range fired {
		if ev.load.destPhys < 0 {
			continue
		}
		// Poison propagates through destinations in issue order
		// (consumers always issue at or after their producers).
		poisoned := map[int]bool{ev.load.destPhys: true}
		count := int64(0)
		var squashedNow []*inst
		rest := c.inflight[:0]
		for _, e := range c.inflight {
			if e.squashed {
				continue
			}
			dep := (e.src1Phys >= 0 && poisoned[e.src1Phys]) ||
				(e.src2Phys >= 0 && poisoned[e.src2Phys])
			if !dep {
				rest = append(rest, e)
				continue
			}
			if e.destPhys >= 0 {
				poisoned[e.destPhys] = true
				c.specReady[e.destPhys] = infinity
				c.actReady[e.destPhys] = infinity
			}
			e.issued = false
			e.inBuffer = true
			e.specWoken = false
			e.shifted = false
			squashedNow = append(squashedNow, e)
			count++
		}
		c.inflight = rest
		c.recovery = mergeByAge(c.recovery, squashedNow)
		if ev.cause == causeBank {
			c.run.ReplayedBank += count
		} else {
			c.run.ReplayedMiss += count
		}
	}
}

// replaySquash cancels the D in-flight issue groups issued in
// [cycle-D, cycle-1], moves them to the recovery buffer, and blocks this
// cycle's issue — the paper's D+1 lost issue groups. The buffer is kept
// sorted by dynamic age: register dependences always point from older to
// younger µ-ops, so age order guarantees a replayed consumer never waits
// on a producer stuck behind it (head-blocking FIFO replay stays live).
func (c *Core) replaySquash(cause replayCause) {
	lo := c.cycle - c.delay()
	count := int64(0)
	var squashedNow []*inst
	rest := c.inflight[:0]
	for _, e := range c.inflight {
		if e.squashed {
			continue
		}
		if e.issueCycle >= lo && e.issueCycle < c.cycle {
			e.issued = false
			e.inBuffer = true
			if e.destPhys >= 0 {
				c.specReady[e.destPhys] = infinity
				c.actReady[e.destPhys] = infinity
			}
			e.specWoken = false
			e.shifted = false
			squashedNow = append(squashedNow, e)
			count++
		} else {
			rest = append(rest, e)
		}
	}
	c.inflight = rest
	c.recovery = mergeByAge(c.recovery, squashedNow)
	if cause == causeBank {
		c.run.ReplayedBank += count
	} else {
		c.run.ReplayedMiss += count
	}
	c.issueBlock = c.cycle
}

// commit retires up to RetireWidth completed µ-ops from the ROB head,
// training the commit-time predictors (hit/miss filter, criticality).
func (c *Core) commit() {
	width := c.cfg.RetireWidth
	storesThisCycle := 0
	if len(c.rob) > 0 && c.rob[0].becameHead < 0 {
		c.rob[0].becameHead = c.cycle
	}
	for width > 0 && len(c.rob) > 0 {
		e := c.rob[0]
		if !e.executed || e.inBuffer || e.doneCycle > c.cycle {
			break
		}
		if e.isStore() {
			if storesThisCycle >= 2 {
				break
			}
			c.l1.Store(e.u.Addr, e.u.PC, c.cycle)
			storesThisCycle++
			c.sq = removeOldest(c.sq, e)
		}
		if e.isLoad() {
			c.filter.Update(e.u.PC, e.loadHit)
			c.lq = removeOldest(c.lq, e)
		}
		// ROB-head criticality criterion (§5.3): the µ-op completed at
		// or after the cycle it became the ROB head.
		c.crit.Update(e.u.PC, e.doneCycle >= e.becameHead)
		if e.destPhys >= 0 {
			c.rmap.Commit(e.oldPhys)
		}
		if c.CommitHook != nil {
			c.CommitHook(e.u)
		}
		c.rob = c.rob[1:]
		c.graveyard = append(c.graveyard, e)
		if len(c.rob) > 0 && c.rob[0].becameHead < 0 {
			c.rob[0].becameHead = c.cycle
		}
		c.committed++
		c.run.Committed++
		width--
	}
}

// squashFrom rolls the machine back to just before dynID (inclusive=true
// squashes dynID itself, as for memory-order violations; false keeps it, as
// for branch mispredictions). Correct-path victims are queued for refetch.
func (c *Core) squashFrom(dynID int64, inclusive bool) {
	cut := len(c.rob)
	for cut > 0 {
		d := c.rob[cut-1].dynID
		if d > dynID || (inclusive && d == dynID) {
			cut--
		} else {
			break
		}
	}
	victims := c.rob[cut:]

	var oldestBranch *inst
	refetch := c.squashRefetch[:0]
	for i := len(victims) - 1; i >= 0; i-- {
		v := victims[i]
		v.squashed = true
		if c.sched != nil {
			// Eagerly unlink from consumer/memory-dependence waiter
			// lists: those are walked through raw pointers and the inst
			// will be recycled next cycle. (Timing-wheel entries are
			// purged lazily via the generation check; the ready bitmap's
			// slots are reused by the seq rollback below, so its bits are
			// cleared eagerly too.)
			c.sched.unlink(v)
			c.sched.dropReady(v)
		}
		if v.destPhys >= 0 {
			c.rmap.Rollback(v.u.Dest, v.oldPhys, v.destPhys)
		}
		if v.inIQ {
			v.inIQ = false
			c.iqCount--
		}
		v.inBuffer = false
		v.issued = false
		v.inReadyQ = false
		if v.isBranch() {
			oldestBranch = v
		}
		if !v.u.WrongPath {
			refetch = append(refetch, v.u)
		}
		c.graveyard = append(c.graveyard, v)
	}
	c.squashRefetch = refetch
	c.rob = c.rob[:cut]

	// Roll the dispatch-sequence counter back over the squashed suffix:
	// the next dispatch reuses the oldest victim's seq, keeping live ROB
	// seqs contiguous (span <= ROBEntries) so the bitmap ready queue's
	// seq&mask slots never alias. With an emptied ROB contiguity is
	// trivial, so dispSeq is left alone.
	if cut > 0 {
		c.dispSeq = c.rob[cut-1].seq + 1
	}

	// Rebuild the refetch queue into the standby buffer: ROB victims
	// (oldest first — reverse the youngest-first collection), then
	// front-end victims (already oldest first), then whatever was pending.
	// The two backing buffers alternate so steady-state squashes allocate
	// nothing.
	merged := c.refetchSpare[:0]
	for i := len(refetch) - 1; i >= 0; i-- {
		merged = append(merged, refetch[i])
	}

	// The front end is entirely younger than anything in the ROB: flush
	// it, re-queueing correct-path µ-ops.
	for _, v := range c.frontQ {
		v.squashed = true
		if !v.u.WrongPath {
			merged = append(merged, v.u)
		}
		c.graveyard = append(c.graveyard, v)
	}
	c.frontQ = c.frontQ[:0]

	merged = append(merged, c.refetchQ...)
	c.refetchSpare = c.refetchBase[:0]
	c.refetchBase = merged
	c.refetchQ = merged

	// Purge squashed entries from the scheduler-side structures. The
	// event-driven implementation has no IQ slice, inflight slice, or
	// event list to purge — its wheel and heap entries die by generation.
	if c.sched == nil {
		c.iq = filterSquashed(c.iq)
		c.inflight = filterSquashed(c.inflight)
		evs := c.events[:0]
		for _, ev := range c.events {
			if !ev.load.squashed {
				evs = append(evs, ev)
			}
		}
		c.events = evs
	}
	c.lq = filterSquashed(c.lq)
	c.sq = filterSquashed(c.sq)
	c.recovery = filterSquashed(c.recovery)

	// Rewind the branch-history to before the oldest squashed branch; a
	// mispredicting resolver will override with its own snapshot.
	if oldestBranch != nil {
		c.tage.RestoreFrom(&oldestBranch.br.snap)
	}
	c.ss.SquashAfter(dynID)
}

// mergeByAge merges two dynID-ascending inst lists. a must already be
// sorted (the recovery buffer invariant); b may be in any order.
func mergeByAge(a, b []*inst) []*inst {
	if len(b) == 0 {
		return a
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].dynID < b[j-1].dynID; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
	out := make([]*inst, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].dynID <= b[j].dynID {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func filterSquashed(in []*inst) []*inst {
	out := in[:0]
	for _, e := range in {
		if !e.squashed {
			out = append(out, e)
		}
	}
	return out
}

func removeInst(in []*inst, e *inst) []*inst {
	for i, x := range in {
		if x == e {
			return append(in[:i], in[i+1:]...)
		}
	}
	return in
}

// removeOldest removes e from an age-ordered queue. In-order commit always
// retires the queue head, so this is O(1) head consumption (the queues'
// append helpers copy the live window down when the backing buffer's tail
// is reached); the splice fallback keeps it correct for any caller.
func removeOldest(in []*inst, e *inst) []*inst {
	if len(in) > 0 && in[0] == e {
		return in[1:]
	}
	return removeInst(in, e)
}
