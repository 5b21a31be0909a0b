package core

import (
	"specsched/internal/bpred"
	"specsched/internal/uop"
)

// infinity is the "not ready / unknown" sentinel for scoreboard cycles.
const infinity = int64(1) << 60

// inst is one dynamic µ-op in flight, from fetch to retirement. It carries
// all per-instruction pipeline state; the core's structures (frontend
// queue, ROB, IQ, LSQ, recovery buffer, issue-to-execute latches) hold
// pointers into a single allocation per dynamic µ-op. The pipeline state
// lives in the embedded instState so pool recycling can zero it without
// touching u, which every fetch path overwrites in full.
type inst struct {
	u uop.UOp
	instState
}

// instState is every per-µ-op field except the µ-op itself.
type instState struct {
	// dynID is the core-local dynamic ordering id (allocated at fetch,
	// monotone; wrong-path µ-ops get ids too, unlike u.Seq).
	dynID int64

	// seq is the dispatch sequence number. Unlike dynID it is rolled back
	// when a ROB suffix is squashed (squashFrom), so the seqs of live ROB
	// entries are always contiguous — the property that makes the bitmap
	// ready queue's seq&mask slotting alias-free (see readyBM).
	seq int64

	readyAt int64 // frontend: cycle the µ-op reaches rename

	// Rename state. destPhys stays -1 until rename maps a destination.
	src1Phys, src2Phys int
	destPhys, oldPhys  int

	// Memory dependence (Store Sets): dynID of the store this µ-op must
	// order after, or -1.
	memDepID int64

	// Scheduler state.
	inIQ     bool // occupies an IQ entry
	inBuffer bool // sits in the recovery buffer awaiting replay
	issued   bool // in the issue-to-execute latches
	executed bool

	issueCycle  int64
	execCycle   int64
	doneCycle   int64 // result on the bypass network
	timesIssued int

	// Speculative-scheduling state (loads).
	specWoken bool  // dependents were woken assuming an L1 hit
	shifted   bool  // Schedule Shifting added one cycle to the promise
	promise   int64 // specReady value published for the destination
	loadHit   bool  // L1 hit (or store forward) — trains the filter

	// Branch state. br is pooled by the core and set for branches only —
	// inlining it would grow (and force zeroing of) every µop record by
	// the size of a TAGE prediction and its folded-history snapshot.
	br        *branchState
	predTaken bool
	mispred   bool

	// Retirement bookkeeping.
	becameHead int64 // cycle this entry became the ROB head
	squashed   bool

	// Event-driven scheduler state (config.SchedEvent only). gen is the
	// pool-recycling generation: it survives newInst resets and lets the
	// lazily-purged structures (timing-wheel slots) detect
	// entries whose inst has been recycled for a different dynamic µ-op.
	gen uint32
	// An unready µ-op subscribes to exactly one wakeup source at a time:
	// either a physical register's consumer list or a store's memory-
	// dependence waiter list, linked intrusively through waitPrev/waitNext.
	waitKind waitKind
	waitReg  int   // subscribed physical register (waitOnReg)
	waitOn   *inst // subscribed store (waitOnStore)
	waitPrev *inst
	waitNext *inst
	// memWaitHead heads the waiter list of µ-ops whose predicted memory
	// dependence points at this store.
	memWaitHead *inst
	// inReadyQ marks live membership in the ready bitmap.
	inReadyQ bool
}

// branchState is the branch-only part of an in-flight µ-op: the TAGE
// prediction the commit-time update trains with, and the history snapshot
// a squash rewinds to. The core pools these records and hangs one on each
// conditional branch when it is predicted.
type branchState struct {
	pred bpred.Prediction
	snap bpred.Snapshot
}

// waitKind labels what an unready µ-op is subscribed to.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitOnReg
	waitOnStore
)

func (e *inst) isLoad() bool   { return e.u.Class == uop.ClassLoad }
func (e *inst) isStore() bool  { return e.u.Class == uop.ClassStore }
func (e *inst) isBranch() bool { return e.u.Class == uop.ClassBranch }
func (e *inst) isMem() bool    { return e.u.Class.IsMem() }

// quadword returns the 8-byte-aligned address unit used for forwarding and
// violation detection.
func (e *inst) quadword() uint64 { return e.u.Addr >> 3 }

// replayCause labels a scheduling-replay trigger.
type replayCause uint8

const (
	causeBank replayCause = iota
	causeMiss
)

func (c replayCause) String() string {
	if c == causeBank {
		return "bank-conflict"
	}
	return "l1-miss"
}

// replayEvent is a pending schedule-misspeculation: at cycle detect, the
// in-flight issue groups are squashed into the recovery buffer and the
// load's destination is re-promised at reviseTo. A load that is both
// bank-delayed and missing raises two events — the conflict is discovered
// at arbitration and re-promises assuming a (delayed) hit; the miss is
// discovered when the hit signal arrives and re-promises with the true
// fill time — reproducing the paper's repeated-replay behaviour.
type replayEvent struct {
	detect   int64
	reviseTo int64
	cause    replayCause
	load     *inst
	// gen snapshots load.gen at creation; the event-driven scheduler's
	// timing wheel uses it to drop events whose load was squashed and
	// recycled before the detection cycle arrived. The scan scheduler
	// filters on load.squashed every cycle instead and ignores it.
	gen uint32
}
