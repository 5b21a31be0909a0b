// Package core implements the paper's contribution: a cycle-level model of
// a 6-issue out-of-order superscalar with *speculative scheduling* — µ-ops
// are issued IssueToExecuteDelay+1 cycles before they execute, dependents
// of loads are woken assuming an L1 hit, and scheduling misspeculations
// (L1 misses, L1 bank conflicts) squash the in-flight issue groups into a
// recovery buffer that replays with priority over the scheduler (§3.1,
// §4). On top of the baseline speculative scheduler it implements the
// paper's three mitigations: Schedule Shifting (§5.1), hit/miss filtering
// with a global counter and a per-PC filter (§5.2), and criticality-gated
// wakeup (§5.3).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"specsched/internal/bpred"
	"specsched/internal/cache"
	"specsched/internal/config"
	"specsched/internal/dram"
	"specsched/internal/memdep"
	"specsched/internal/predict"
	"specsched/internal/regfile"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/uop"
)

// ErrStreamEnded reports that the µ-op stream was exhausted before the
// requested simulation window completed — the pipeline drained, nothing
// more can commit. The synthetic experiment streams are infinite and never
// trigger it; a recorded trace (internal/traceio) that is shorter than the
// simulation window it is asked to drive does.
var ErrStreamEnded = errors.New("core: µ-op stream ended before the simulation window completed")

// redirectBubble is the fetch-redirect latency after a branch resolves,
// calibrated together with FrontendDepth so the minimum misprediction
// penalty matches the paper's 20 cycles.
const redirectBubble = 2

// dramAdapter exposes the DRAM model through the cache.MemBackend
// interface.
type dramAdapter struct{ d *dram.DRAM }

func (a dramAdapter) Access(addr, pc uint64, now int64, write bool) int64 {
	return a.d.Access(addr, now, write)
}

// Core is one simulated processor running one workload. It is not safe for
// concurrent use; run one Core per goroutine.
type Core struct {
	cfg config.CoreConfig

	// Substrates.
	tage   *bpred.TAGE
	btb    *bpred.BTB
	ss     *memdep.StoreSets
	l1     *cache.L1D
	l2     *cache.L2
	mem    *dram.DRAM
	rmap   *regfile.RenameMap
	gctr   *predict.GlobalCounter
	filter *predict.Filter
	crit   *predict.Criticality
	bankp  *predict.BankPredictor

	stream uop.Stream
	wp     *trace.WrongPath

	cycle int64

	// Physical register scoreboard. specReady is the cycle at which the
	// scheduler may select consumers; actReady the cycle the value is on
	// the bypass network at the Execute stage.
	specReady []int64
	actReady  []int64

	// Windows. rob is a FIFO (index 0 = head = oldest).
	rob      []*inst
	iq       []*inst
	iqCount  int
	lq       []*inst
	sq       []*inst
	recovery []*inst
	inflight []*inst // issued, not yet executed

	frontQ    []*inst
	refetchQ  []uop.UOp
	wrongPath bool
	nextDynID int64
	// dispSeq is the next dispatch sequence number (see instState.seq);
	// squashFrom rolls it back over squashed ROB suffixes.
	dispSeq int64

	fetchResume int64 // no fetch before this cycle
	issueBlock  int64 // issue blocked at exactly this cycle (replay handling)

	events []replayEvent

	// sched is the event-driven scheduler state (config.SchedEvent); nil
	// selects the legacy scan implementation.
	sched *eventSched

	// Pre-sized buffers backing the ROB/front-end FIFOs and the refetch
	// queue so the steady-state simulate loop allocates nothing: the FIFOs
	// re-slice from the front and copy down when their tail reaches the
	// buffer end; the refetch queue alternates between two buffers on
	// rebuild.
	robBuf        []*inst
	frontBuf      []*inst
	lqBuf         []*inst
	sqBuf         []*inst
	refetchBase   []uop.UOp
	refetchSpare  []uop.UOp
	squashRefetch []uop.UOp

	// Unpipelined units: earliest next issue cycle.
	divFree   int64
	fpDivFree [2]int64

	// loadBanksThisCycle records the predicted banks of loads issued in
	// the current cycle (bank-predictor Shifting variant).
	loadBanksThisCycle []int

	// pool recycles inst allocations; graveyard holds squashed entries
	// until the next cycle boundary so no in-flight iteration can observe
	// a recycled instruction. brPool recycles the branch-only records
	// (prediction and history snapshot) branches carry.
	pool      []*inst
	graveyard []*inst
	brPool    []*branchState

	// Measurement.
	run           *stats.Run
	committed     int64 // total committed µ-ops since construction
	lastCommitted int64 // deadlock watchdog
	lastProgress  int64

	// heartbeat, when non-nil, receives the current simulated cycle at
	// every cancellation poll of the step loop (see SetHeartbeat) — the
	// liveness signal behind the sweep pool's stall watchdog.
	heartbeat *atomic.Int64

	// streamDone records that the correct-path µ-op stream reported
	// exhaustion. The experiment streams are infinite, but recorded traces
	// (internal/traceio) are not: once the pipeline has drained past the
	// last recorded µ-op, stepTo returns ErrStreamEnded instead of letting
	// the deadlock watchdog trip.
	streamDone bool

	// CommitHook, when non-nil, is invoked for every retiring µ-op in
	// commit order — the architectural instruction stream. Used by tests
	// (commit-order invariants) and tools (trace dumping).
	CommitHook func(u uop.UOp)

	// missThisCycle and loadThisCycle feed the Alpha global counter: it
	// is decremented by two on cycles where an L1 miss takes place and
	// incremented by one on other cycles with cache activity. Ticking it
	// on load-free cycles would let sparse misses (low-IPC memory-bound
	// phases) saturate it high, defeating the mechanism the paper
	// evaluates, so idle cycles leave it untouched.
	missThisCycle bool
	loadThisCycle bool
}

// New builds a core with the given configuration running the given µ-op
// stream. wpSeed seeds the wrong-path filler generator.
func New(cfg config.CoreConfig, stream uop.Stream, wpSeed uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:    cfg,
		stream: stream,
		wp:     trace.NewWrongPath(wpSeed, 4<<10),
		tage:   bpred.NewTAGE(&cfg),
		btb:    bpred.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ss:     memdep.New(1024, 1024),
		mem:    dram.New(cfg.DRAM),
		rmap:   regfile.New(cfg.IntPRF, cfg.FPPRF),
		gctr:   predict.NewGlobalCounter(),
		filter: predict.NewFilter(cfg.FilterEntries, cfg.FilterResetInterval, cfg.FilterNoSilence),
		crit:   predict.NewCriticality(cfg.CritEntries, cfg.CritCtrBits),
		bankp:  predict.NewBankPredictor(max(cfg.BankPredEntries, 64)),
		run:    &stats.Run{Workload: "?", Config: cfg.Name},
	}
	c.l2 = cache.NewL2(&cfg, dramAdapter{c.mem})
	c.l1 = cache.NewL1D(&cfg, c.l2)
	n := c.rmap.TotalPhys()
	c.specReady = make([]int64, n)
	c.actReady = make([]int64, n)
	c.issueBlock = -1
	c.robBuf = make([]*inst, 0, 2*cfg.ROBEntries)
	c.rob = c.robBuf
	frontCap := c.frontCap()
	c.frontBuf = make([]*inst, 0, 2*frontCap+cfg.FetchWidth)
	c.frontQ = c.frontBuf
	c.lqBuf = make([]*inst, 0, 2*cfg.LQEntries)
	c.lq = c.lqBuf
	c.sqBuf = make([]*inst, 0, 2*cfg.SQEntries)
	c.sq = c.sqBuf
	// Pre-size the pools and squash scratch buffers to their structural
	// bounds so the steady-state simulate loop never allocates: at most
	// ROB + front-end µ-ops are live, another window's worth can sit in
	// the graveyard for one cycle, and a squash re-queues at most one
	// window of correct-path µ-ops.
	window := cfg.ROBEntries + frontCap + cfg.FetchWidth
	arena := make([]inst, 2*window)
	c.pool = make([]*inst, 0, 4*window)
	for i := range arena {
		c.pool = append(c.pool, &arena[i])
	}
	brs := make([]branchState, window)
	c.brPool = make([]*branchState, 0, 2*window)
	for i := range brs {
		c.brPool = append(c.brPool, &brs[i])
	}
	c.squashRefetch = make([]uop.UOp, 0, window)
	c.refetchBase = make([]uop.UOp, 0, 2*window)
	c.refetchSpare = make([]uop.UOp, 0, 2*window)
	c.graveyard = make([]*inst, 0, 2*window)
	if cfg.Scheduler == config.SchedEvent {
		c.sched = newEventSched(c)
	}
	return c, nil
}

// publishSpecReady writes the speculative scoreboard and, under the
// event-driven scheduler, schedules the consumer wakeup the write implies.
// Every specReady store in shared code must go through here.
func (c *Core) publishSpecReady(p int, t int64) {
	c.specReady[p] = t
	if c.sched != nil {
		c.sched.onPublish(p, t)
	}
}

// robAppend appends to the ROB FIFO, copying the live window back to the
// start of the backing buffer when the tail reaches its end (the head is
// consumed by re-slicing in commit). Amortized alloc-free.
func (c *Core) robAppend(e *inst) {
	if len(c.rob) == cap(c.rob) {
		n := copy(c.robBuf[:cap(c.robBuf)], c.rob)
		c.rob = c.robBuf[:n]
	}
	c.rob = append(c.rob, e)
}

// frontAppend is robAppend for the front-end delay queue.
func (c *Core) frontAppend(e *inst) {
	if len(c.frontQ) == cap(c.frontQ) {
		n := copy(c.frontBuf[:cap(c.frontBuf)], c.frontQ)
		c.frontQ = c.frontBuf[:n]
	}
	c.frontQ = append(c.frontQ, e)
}

// lqAppend and sqAppend are robAppend for the load and store queues, whose
// heads are consumed by removeOldest at commit.
func (c *Core) lqAppend(e *inst) {
	if len(c.lq) == cap(c.lq) {
		n := copy(c.lqBuf[:cap(c.lqBuf)], c.lq)
		c.lq = c.lqBuf[:n]
	}
	c.lq = append(c.lq, e)
}

func (c *Core) sqAppend(e *inst) {
	if len(c.sq) == cap(c.sq) {
		n := copy(c.sqBuf[:cap(c.sqBuf)], c.sq)
		c.sq = c.sqBuf[:n]
	}
	c.sq = append(c.sq, e)
}

// insertRecovery inserts one squashed µ-op into the age-ordered recovery
// buffer (the event-driven replacement for batch mergeByAge).
func (c *Core) insertRecovery(e *inst) {
	c.recovery = append(c.recovery, e)
	for i := len(c.recovery) - 1; i > 0 && c.recovery[i-1].dynID > e.dynID; i-- {
		c.recovery[i] = c.recovery[i-1]
		c.recovery[i-1] = e
	}
}

// MustNew is New for known-good configurations (presets); it panics on
// configuration errors.
func MustNew(cfg config.CoreConfig, stream uop.Stream, wpSeed uint64) *Core {
	c, err := New(cfg, stream, wpSeed)
	if err != nil {
		panic(err)
	}
	return c
}

// SetWorkloadName labels the statistics record.
func (c *Core) SetWorkloadName(name string) { c.run.Workload = name }

// SetHeartbeat registers a counter the step loop stores the current
// simulated cycle into, piggybacked on the existing cancellation poll
// (every cancelPollCycles busy cycles, so it costs nothing extra on the
// hot path, and only with a cancelable context). A watchdog reading the
// counter can distinguish a slow-but-progressing cell (heartbeats advance)
// from a hung one (heartbeats freeze): a core stuck inside a single Step —
// or a cell stuck before the core ever starts stepping — never advances
// it. Pass nil to detach.
func (c *Core) SetHeartbeat(hb *atomic.Int64) { c.heartbeat = hb }

// Stats returns the live statistics record for the current measurement
// window.
func (c *Core) Stats() *stats.Run { return c.run }

// Cycle returns the current cycle number.
func (c *Core) Cycle() int64 { return c.cycle }

// StreamExhausted reports whether the µ-op stream has reported
// exhaustion. A run that completed its window with this set consumed the
// stream's final µ-op mid-window: for a recorded trace that means fetch
// wanted µ-ops the recording does not have, so the machine's fetch-ahead —
// and therefore its statistics — can diverge from a live run. Callers
// replaying traces must treat it as an error even when the window
// committed fully.
func (c *Core) StreamExhausted() bool { return c.streamDone }

// delay returns the issue-to-execute delay D.
func (c *Core) delay() int64 { return int64(c.cfg.IssueToExecuteDelay) }

// Step advances the simulation by one cycle. Pipeline phases run in
// reverse order so each stage consumes the previous cycle's products.
// Zero steady-state allocations (TestSteadyStateZeroAllocs) — enforced
// statically by specschedlint on top of the runtime guard.
//
//specsched:hotpath
func (c *Core) Step() {
	if len(c.graveyard) > 0 {
		c.pool = append(c.pool, c.graveyard...) //lint:allow hotpathalloc(recycle into the pool the µ-ops came from: both slices are sized to RobSize at construction and their lengths are complementary)
		c.graveyard = c.graveyard[:0]
	}
	c.commit()
	c.missThisCycle = false
	c.loadThisCycle = false
	if c.sched != nil {
		c.sched.execute()
	} else {
		c.execute()
	}
	if c.loadThisCycle {
		c.gctr.Tick(c.missThisCycle)
	}
	if c.sched != nil {
		c.sched.processEvents()
	} else {
		c.processEvents()
	}
	if c.sched != nil {
		c.sched.issue()
	} else {
		c.issue()
	}
	c.dispatch()
	c.fetch()
	c.run.Cycles++
	c.run.IQOccupancySum += int64(c.iqCount)
	c.run.ROBOccupancySum += int64(len(c.rob))
	c.cycle++
}

// Run simulates until warmup µ-ops have committed, resets the statistics,
// then simulates until measure more µ-ops commit, and returns the
// measurement window's statistics.
func (c *Core) Run(warmup, measure int64) *stats.Run {
	r, err := c.RunContext(context.Background(), warmup, measure)
	if err != nil {
		// The background context never cancels, so the only reachable
		// error is ErrStreamEnded from a too-short finite stream — callers
		// running finite traces must use RunContext.
		panic(err)
	}
	return r
}

// RunContext is Run with cooperative cancellation: the step loop polls the
// context every cancelPollCycles simulated busy cycles (sub-millisecond in
// wall-clock terms) and returns the context's cause error, leaving the core
// in a consistent mid-simulation state — a later RunContext call resumes
// where the canceled one stopped. An uncancelable context pays no polling
// cost.
func (c *Core) RunContext(ctx context.Context, warmup, measure int64) (*stats.Run, error) {
	if err := c.stepTo(ctx, c.committed+warmup); err != nil {
		return nil, err
	}
	c.ResetStats()
	if err := c.stepTo(ctx, c.committed+measure); err != nil {
		return nil, err
	}
	return c.run, nil
}

// ResetStats zeroes the statistics record while keeping all architectural
// and microarchitectural state (used at the warmup/measure boundary).
func (c *Core) ResetStats() {
	name, cfgName := c.run.Workload, c.run.Config
	*c.run = stats.Run{Workload: name, Config: cfgName}
}

// cancelPollCycles is how many step-loop iterations (busy cycles; skipped
// quiescent spans count as one) run between context-cancellation polls. At
// the simulator's worst-case ~5M busy cycles/sec this bounds the response
// to a cancel at well under a millisecond of wall clock, while keeping the
// poll amortized to nothing on the hot path.
const cancelPollCycles = 4096

// stepTo simulates until targetCommitted µ-ops have committed, or until ctx
// is canceled (returning the cancellation cause). The scan scheduler steps
// every cycle; the event scheduler, when config.TimeSkip is on, first jumps
// any provably quiescent span straight to the next interesting cycle (see
// skipQuiescent) and then executes the cycle where something can actually
// happen — per-cycle semantics inside Step are untouched, so
// single-stepping tests and the scan path see the exact same machine.
// The alloc_test.go stepTo guard pins this loop at zero steady-state
// allocations.
//
//specsched:hotpath
func (c *Core) stepTo(ctx context.Context, targetCommitted int64) error {
	skip := c.sched != nil && c.cfg.TimeSkip
	cancelable := ctx.Done() != nil
	poll := cancelPollCycles
	c.lastProgress = c.cycle
	if hb := c.heartbeat; hb != nil && cancelable {
		// First beat before the first step: "simulation has started" is
		// itself progress a watchdog should see.
		hb.Store(c.cycle)
	}
	for c.committed < targetCommitted {
		if cancelable {
			if poll--; poll <= 0 {
				if ctx.Err() != nil {
					return context.Cause(ctx)
				}
				if hb := c.heartbeat; hb != nil {
					hb.Store(c.cycle)
				}
				poll = cancelPollCycles
			}
		}
		if skip {
			c.skipQuiescent()
		}
		c.Step()
		if c.committed != c.lastCommitted {
			c.lastCommitted = c.committed
			c.lastProgress = c.cycle
		} else if c.streamDone && len(c.rob) == 0 && len(c.frontQ) == 0 && len(c.refetchQ) == 0 {
			// The stream ran dry and the pipeline has fully drained:
			// nothing can ever commit again. Infinite experiment streams
			// never get here; a too-short recorded trace does.
			return ErrStreamEnded
		} else if c.cycle-c.lastProgress > 500000 {
			//lint:allow hotpathalloc(cold watchdog path: formatting happens once, immediately before the panic kills the run)
			panic(fmt.Sprintf("core: no commit for 500000 cycles (cycle %d, committed %d, rob %d, iq %d, buffer %d, head %s)",
				c.cycle, c.committed, len(c.rob), c.iqCount, len(c.recovery), c.describeHead()))
		}
	}
	return nil
}

func (c *Core) describeHead() string {
	if len(c.rob) == 0 {
		return "<empty rob>"
	}
	e := c.rob[0]
	return fmt.Sprintf("%s issued=%t executed=%t done=%d buffer=%t",
		e.u.String(), e.issued, e.executed, e.doneCycle, e.inBuffer)
}
