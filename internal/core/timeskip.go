package core

// This file implements quiescent-cycle skipping (config.TimeSkip): under
// the event-driven scheduler, simulated time advances event-to-event
// instead of cycle-by-cycle whenever the machine is provably dead. A core
// stalled on a DRAM miss spends hundreds of cycles in which every pipeline
// phase is a no-op — commit blocked on the ROB head, the window asleep on
// consumer lists, the front end full — and per-cycle stepping pays the
// whole Step fixed cost for each of them. skipQuiescent instead computes
// the *next interesting cycle* — the minimum over every source of future
// work — and jumps c.cycle straight there, bulk-accumulating the per-cycle
// statistics (Cycles, occupancy sums) for the span.
//
// Soundness argument (why the skip is unobservable): every state change in
// the machine is initiated by one of the pipeline phases, and each phase
// can act at cycle T only if
//
//   - commit:  the ROB head is retirable (executed, not in the recovery
//     buffer, doneCycle <= T) or still needs its becameHead stamp;
//   - execute: an execute-wheel entry is due at T;
//   - events:  a replay-wheel entry is due at T;
//   - issue:   a register wakeup is due at T (regWheel), a ready-queue
//     candidate exists, or a recovery-buffer entry passes ready();
//   - dispatch: the front-queue head has traversed the front end
//     (readyAt <= T) and no structural hazard blocks it — and hazards
//     (ROB/IQ/LQ/SQ/PRF) are only ever relieved by commit/issue/execute,
//     i.e. by phases pinned above;
//   - fetch:   the front queue is below capacity and T >= fetchResume.
//
// Each activation time is either a concrete cycle this file pins as a jump
// candidate (wheel entries via wheel.nextBusy, the head's doneCycle, the
// dispatch head's readyAt, fetchResume, a recovery entry's earliest
// possible ready cycle) or requires one of the pinned events to fire
// first. By induction, no phase can act strictly before the minimum of the
// candidates, so jumping to it skips only cycles in which per-cycle
// stepping would have done nothing — including the Alpha global counter,
// which ticks only on cycles with load execution.
//
// The memory hierarchy adds no candidate: it is demand-driven. An access
// computes its fill time when it is issued and inserts the line at once;
// nothing happens when the fill completes. Cache and DRAM state change only
// inside Load, Store and Access, which only the pipeline phases above call,
// and every fill a µ-op waits on already reaches it through a pinned wakeup.
//
// The scan scheduler keeps exact per-cycle stepping (it re-polls the whole
// window each cycle, so there is no event set to take a minimum over), and
// Step itself still advances exactly one cycle — the differential suite
// runs skip-on, skip-off, and scan side by side and requires bit-identical
// statistics.

// skipHorizon bounds one quiescent jump. It keeps the no-commit watchdog
// in stepTo live (a deadlocked machine re-checks at least every horizon)
// and bounds wheel.nextBusy's answer; real event gaps (DRAM row conflicts
// plus queueing, ~10^2..10^3 cycles) fit far inside it.
const skipHorizon = 1 << 15

// skipQuiescent jumps c.cycle to the next interesting cycle when the
// current cycle is provably dead, accumulating the skipped span's
// per-cycle statistics. A no-op when anything can happen this cycle.
func (c *Core) skipQuiescent() {
	now := c.cycle
	target := c.quiesceTarget(now)
	if target <= now {
		return
	}
	span := target - now
	// The skipped cycles change no machine state, so the per-cycle sums
	// accumulate a constant: iqCount and len(rob) are what per-cycle
	// stepping would have sampled on every one of them.
	c.run.Cycles += span
	c.run.IQOccupancySum += int64(c.iqCount) * span
	c.run.ROBOccupancySum += int64(len(c.rob)) * span
	c.run.SkippedCycles += span
	c.run.SkipSpans++
	c.cycle = target
}

// quiesceTarget returns the earliest cycle >= now at which any pipeline
// phase can possibly act. A result equal to now means the current cycle is
// not skippable. Cheap activity checks run first so busy cycles exit
// before the wheel scans.
func (c *Core) quiesceTarget(now int64) int64 {
	s := c.sched
	// Ready-queue candidates issue (or are lazily dropped) this cycle.
	if s.readyTotal > 0 {
		return now
	}
	// A busy wheel slot is collected this cycle (possibly a no-op compact
	// of future-revolution entries — which per-cycle stepping also does).
	if s.execWheel.busy(now) || s.replayWheel.busy(now) || s.regWheel.busy(now) {
		return now
	}

	target := now + skipHorizon

	// Fetch: active unless the delay queue is full or fetch is parked on a
	// redirect bubble.
	if len(c.frontQ) < c.frontCap() {
		if c.fetchResume <= now {
			return now
		}
		target = min(target, c.fetchResume)
	}

	// Dispatch: pinned by the front-queue head's rename-ready cycle unless
	// a structural hazard blocks it (hazards clear only via pinned phases).
	if len(c.frontQ) > 0 {
		e := c.frontQ[0]
		if !c.dispatchBlocked(e) {
			if e.readyAt <= now {
				return now
			}
			target = min(target, e.readyAt)
		}
	}

	// Commit: pinned by the head's completion. A head that has not been
	// stamped becameHead yet must see a real commit phase this cycle (the
	// stamp cycle feeds the criticality predictor).
	if len(c.rob) > 0 {
		head := c.rob[0]
		if head.becameHead < 0 {
			return now
		}
		if head.executed {
			if head.doneCycle <= now {
				return now
			}
			target = min(target, head.doneCycle)
		}
	}

	// Recovery buffer: issueRecovery re-polls ready() every cycle, so pin
	// each entry's earliest possible ready cycle.
	for _, e := range c.recovery {
		at, pinned := c.recoveryReadyAt(e)
		if !pinned {
			continue // waits on a source only a pinned event can publish
		}
		if at <= now {
			return now
		}
		target = min(target, at)
	}

	// Timing wheels: next due register wakeup, issue-to-execute latch, and
	// replay detection.
	target = min(target, s.regWheel.nextBusy(now, skipHorizon))
	target = min(target, s.execWheel.nextBusy(now, skipHorizon))
	target = min(target, s.replayWheel.nextBusy(now, skipHorizon))
	return target
}

// recoveryReadyAt bounds when a recovery-buffer entry can first pass
// ready(): the latest of its not-yet-ready source promises. pinned is
// false when the entry waits on a withdrawn promise (specReady infinity)
// or an unexecuted predicted-dependence store — both can only advance via
// an event quiesceTarget already pins (a replay revision, a replaying
// producer, the store's own execution), so the entry contributes no
// candidate of its own.
func (c *Core) recoveryReadyAt(e *inst) (at int64, pinned bool) {
	if e.src1Phys >= 0 && c.specReady[e.src1Phys] > at {
		at = c.specReady[e.src1Phys]
	}
	if e.src2Phys >= 0 && c.specReady[e.src2Phys] > at {
		at = c.specReady[e.src2Phys]
	}
	if at >= infinity {
		return 0, false
	}
	if e.memDepID >= 0 {
		if st := c.findStore(e.memDepID); st != nil && !st.executed {
			return 0, false
		}
	}
	return at, true
}
