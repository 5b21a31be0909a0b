package core

import "specsched/internal/uop"

// fetch models the in-order front end: up to FetchWidth µ-ops per cycle
// enter a delay queue of FrontendDepth cycles (the paper's 15−D-cycle
// front end). Conditional branches are predicted here (TAGE direction, BTB
// target); a misprediction switches the fetch source to the wrong-path
// generator until the branch resolves.
func (c *Core) fetch() {
	if c.cycle < c.fetchResume {
		return
	}
	capacity := c.frontCap()
	budget := c.cfg.FetchWidth
	for budget > 0 && len(c.frontQ) < capacity {
		e := c.newInst()
		switch {
		case c.wrongPath:
			c.wp.NextInto(&e.u)
		case len(c.refetchQ) > 0:
			e.u = c.refetchQ[0]
			c.refetchQ = c.refetchQ[1:]
		default:
			if !c.stream.NextInto(&e.u) {
				c.streamDone = true
				c.pool = append(c.pool, e)
				return
			}
		}
		e.dynID = c.nextDynID
		e.readyAt = c.cycle + int64(c.cfg.FrontendDepth)
		c.nextDynID++
		budget--

		if e.isBranch() {
			c.predictBranch(e)
			// A predicted-taken branch ends the fetch group (one taken
			// branch per cycle, §3.1).
			if e.predTaken {
				budget = 0
			}
		}
		c.frontAppend(e)
	}
}

// newInst returns a zeroed instruction record, recycling retired and
// squashed ones. The recycling generation survives the reset: lazily
// purged scheduler structures use it to recognize stale references to a
// recycled record.
func (c *Core) newInst() *inst {
	var e *inst
	if n := len(c.pool); n > 0 {
		e = c.pool[n-1]
		c.pool = c.pool[:n-1]
		if e.br != nil {
			c.brPool = append(c.brPool, e.br)
		}
		gen := e.gen
		// Reset the pipeline state only: u is overwritten in full by
		// whichever fetch path fills this record next.
		e.instState = instState{}
		e.gen = gen + 1
	} else {
		e = &inst{}
	}
	e.memDepID = -1
	e.destPhys = -1
	e.oldPhys = -1
	e.becameHead = -1
	return e
}

// predictBranch runs the front-end predictors for a conditional branch and
// decides whether fetch must divert to the wrong path.
func (c *Core) predictBranch(e *inst) {
	if n := len(c.brPool); n > 0 {
		e.br = c.brPool[n-1]
		c.brPool = c.brPool[:n-1]
	} else {
		e.br = new(branchState)
	}
	c.tage.SnapshotInto(&e.br.snap)
	e.br.pred = c.tage.Predict(e.u.PC)
	e.predTaken = e.br.pred.Taken
	var target uint64 // fetch's next PC after a predicted-taken branch
	if e.predTaken {
		var ok bool
		if target, ok = c.btb.Lookup(e.u.PC); !ok {
			// Predicted taken but no target known: the front end can
			// only continue sequentially.
			e.predTaken = false
		}
	}
	// Speculative history update with the predicted direction.
	c.tage.UpdateHistory(e.predTaken)

	// A fall-through is correct exactly when the branch is not taken.
	e.mispred = e.predTaken != e.u.Taken ||
		(e.predTaken && target != e.u.Target)
	if e.mispred && !e.u.WrongPath {
		c.wrongPath = true
	}
}

// frontCap is the front-end delay queue's capacity: FrontendDepth fetch
// groups in flight plus the group being fetched. Shared by fetch, the
// buffer pre-sizing in New, and the quiescent-cycle skipper's fetch-blocked
// test, which must all agree.
func (c *Core) frontCap() int {
	return c.cfg.FrontendDepth*c.cfg.FetchWidth + c.cfg.FetchWidth
}

// dispatchBlocked reports whether a structural hazard (ROB/IQ/LQ/SQ/PRF
// full) prevents dispatching e this cycle. Shared by dispatch and the
// quiescent-cycle skipper, which relies on exactly these hazards being
// relieved only by commit/issue/execute.
func (c *Core) dispatchBlocked(e *inst) bool {
	return len(c.rob) >= c.cfg.ROBEntries || c.iqCount >= c.cfg.IQEntries ||
		(e.isLoad() && len(c.lq) >= c.cfg.LQEntries) ||
		(e.isStore() && len(c.sq) >= c.cfg.SQEntries) ||
		(e.u.HasDest() && !c.rmap.CanRename(e.u.Dest))
}

// dispatch renames and inserts into the window up to RenameWidth µ-ops
// that have traversed the front end, stopping at the first structural
// hazard (ROB/IQ/LQ/SQ/PRF full).
func (c *Core) dispatch() {
	width := c.cfg.RenameWidth
	for width > 0 && len(c.frontQ) > 0 {
		e := c.frontQ[0]
		if e.readyAt > c.cycle {
			return
		}
		if c.dispatchBlocked(e) {
			return
		}
		c.frontQ = c.frontQ[1:]
		width--
		e.seq = c.dispSeq
		c.dispSeq++
		c.rename(e)
		c.robAppend(e)
		if c.sched == nil {
			c.iq = append(c.iq, e)
		}
		e.inIQ = true
		c.iqCount++
		switch {
		case e.isLoad():
			c.lqAppend(e)
			if dep, ok := c.ss.RenameLoad(e.u.PC); ok {
				e.memDepID = dep
			}
		case e.isStore():
			c.sqAppend(e)
			if dep, ok := c.ss.RenameStore(e.u.PC, e.dynID); ok {
				e.memDepID = dep
			}
		}
		if c.sched != nil {
			// Event-driven dispatch: ready µ-ops enter the ready queue,
			// the rest subscribe to their first unavailable source.
			c.sched.enqueue(e)
		}
	}
}

// rename maps the µ-op's architectural registers onto physical ones.
func (c *Core) rename(e *inst) {
	e.src1Phys, e.src2Phys = -1, -1
	if e.u.Src1 != uop.RegNone {
		e.src1Phys = c.rmap.Lookup(e.u.Src1)
	}
	if e.u.Src2 != uop.RegNone {
		e.src2Phys = c.rmap.Lookup(e.u.Src2)
	}
	if e.u.HasDest() {
		newP, oldP, ok := c.rmap.Rename(e.u.Dest)
		if !ok {
			panic("core: rename called without a free physical register")
		}
		e.destPhys, e.oldPhys = newP, oldP
		c.publishSpecReady(newP, infinity)
		c.actReady[newP] = infinity
	}
}
