package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"specsched"
	"specsched/internal/bpred"
	"specsched/internal/cache"
	"specsched/internal/config"
	"specsched/internal/core"
	"specsched/internal/dram"
	"specsched/internal/memdep"
	"specsched/internal/predict"
	"specsched/internal/regfile"
	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
	"specsched/internal/uop"
	"specsched/internal/worker"
)

// layerMetrics are the traced run's per-layer metrics, in print order. A
// layer the workload's timed phase never calls reports 0 (see README.md).
var layerMetrics = []struct{ name, unit string }{
	{"core.ns_per_uop", "ns/uop"},
	{"core.ns_per_cycle", "ns/cycle"},
	{"core.new_ms", "ms"},
	{"core.skip_frac", "ratio"},
	{"core.sched_events_per_cycle", "count/cycle"},
	{"core.bitmap_words_per_pick", "count/pick"},
	{"core.replays_per_kuop", "count/kuop"},
	{"core.other_ns_per_uop", "ns/uop"},
	{"trace.gen_ns_per_uop", "ns/uop"},
	{"trace.wrongpath_ns_per_uop", "ns/uop"},
	{"traceio.record_ns_per_uop", "ns/uop"},
	{"traceio.open_ms", "ms"},
	{"traceio.decode_ns_per_uop", "ns/uop"},
	{"bpred.tage_ns_per_branch", "ns/branch"},
	{"bpred.snapshot_ns", "ns"},
	{"bpred.btb_ns_per_lookup", "ns/lookup"},
	{"cache.l1d_ns_per_access", "ns/access"},
	{"cache.l2_ns_per_access", "ns/access"},
	{"dram.ns_per_access", "ns/access"},
	{"cache.l1d_miss_rate", "ratio"},
	{"memdep.ns_per_mem_uop", "ns/uop"},
	{"regfile.ns_per_rename", "ns/rename"},
	{"predict.ns_per_load", "ns/load"},
	{"sim.cell_ms", "ms"},
	{"sim.pool_us_per_cell", "us"},
	{"sim.dedupkey_us", "us"},
	{"sim.dedup_hit_us", "us"},
	{"sim.ckpt_record_us", "us"},
	{"sim.ckpt_flush_ms", "ms"},
	{"sim.hit_ratio", "ratio"},
	{"worker.spawn_ms", "ms"},
	{"worker.overhead_ms_per_cell", "ms"},
	{"worker.restarts", "count"},
	{"service.submit_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.stream_us_per_cell", "us"},
	{"service.http_floor_us", "us"},
	{"specsched.spec_validate_us", "us"},
	{"job.fresh_p95_ms", "ms"},
	{"job.hit_p95_ms", "ms"},
	{"host.gc_pause_ms", "ms"},
	{"host.gc_cycles", "count"},
	{"trace_overhead_pct", "%"},
}

// layerPlan tells the traced run which layers a workload's timed phase
// uses and with which presets and windows.
type layerPlan struct {
	configs         []string // presets the workload simulates
	warmup, measure int64
	cache           *specsched.CellCache // the workload's shared cell cache, if any
	checkpoint      bool                 // cells pass through a checkpoint
	traceio         bool                 // also record, open and decode each µ-op stream
	workers         bool                 // also run the core drive's cells in a worker process
	serve           *serveBench          // the daemon, for the HTTP drives
}

// Iterations of the per-call drives (dedup keys, cache hits, health checks,
// spec validation), enough for a steady mean of a µs-scale call.
const (
	keyIters    = 4000
	httpIters   = 400
	ckptRecords = 63 // checkpoint records, flushed every seventh
	workerReps  = 4  // passes of the worker drive over the core drive's cells
)

// driveLayers calls each layer's exported functions the way the workload's
// timed phase reaches them and derives the per-layer metrics from the
// recorded spans.
func driveLayers(ctx context.Context, o options, rec *recorder, plan layerPlan) (map[string]float64, error) {
	m := map[string]float64{}
	cfg, err := config.Preset(plan.configs[len(plan.configs)-1]) // a SpecSched preset
	if err != nil {
		return m, err
	}
	n := plan.warmup + plan.measure
	var c uopCounts
	for _, wl := range benchWorkloads {
		buf, err := driveSource(rec, plan, wl, n)
		if err != nil {
			return m, err
		}
		c.add(driveUOpLayers(rec, &cfg, wl, buf))
	}

	cells, err := driveCore(ctx, o, rec, plan)
	if err != nil {
		return m, err
	}
	if err := driveSim(ctx, o, rec, plan, cells); err != nil {
		return m, err
	}
	if plan.workers {
		if err := driveWorker(ctx, rec, cells, m); err != nil {
			return m, err
		}
	}
	if plan.serve != nil {
		if err := driveService(ctx, rec, plan.serve); err != nil {
			return m, err
		}
	}

	ms := func(name string) float64 { return rec.nsPer(name) / 1e6 }
	us := func(name string) float64 { return rec.nsPer(name) / 1e3 }
	m["trace.gen_ns_per_uop"] = rec.nsPer("trace.gen")
	m["trace.wrongpath_ns_per_uop"] = rec.nsPer("trace.wrongpath")
	m["traceio.record_ns_per_uop"] = rec.nsPer("traceio.record")
	m["traceio.open_ms"] = ms("traceio.open")
	m["traceio.decode_ns_per_uop"] = rec.nsPer("traceio.decode")
	m["bpred.tage_ns_per_branch"] = rec.nsPer("bpred.tage")
	m["bpred.snapshot_ns"] = rec.nsPer("bpred.snapshot")
	m["bpred.btb_ns_per_lookup"] = rec.nsPer("bpred.btb")
	m["cache.l1d_ns_per_access"] = rec.nsPer("cache.l1d")
	m["cache.l2_ns_per_access"] = rec.nsPer("cache.l2")
	m["dram.ns_per_access"] = rec.nsPer("dram")
	m["cache.l1d_miss_rate"] = ratio(c.l1Misses, c.loads)
	m["memdep.ns_per_mem_uop"] = rec.nsPer("memdep")
	m["regfile.ns_per_rename"] = rec.nsPer("regfile")
	m["predict.ns_per_load"] = rec.nsPer("predict")

	runDur, _, _ := rec.total("core.run")
	m["core.ns_per_uop"] = rec.nsPer("core.run")
	m["core.ns_per_cycle"] = ratio(runDur.Nanoseconds(), cells.cycles)
	m["core.new_ms"] = ms("core.new")
	m["core.skip_frac"] = ratio(cells.run.SkippedCycles, cells.run.Cycles)
	m["core.sched_events_per_cycle"] = ratio(cells.run.SchedEvents, cells.run.Cycles)
	m["core.bitmap_words_per_pick"] = ratio(cells.run.SchedBitmapWords, cells.run.SchedBitmapPicks)
	m["core.replays_per_kuop"] = 1000 * ratio(cells.run.Replayed(), cells.run.Committed)
	// An estimate: what the core spends per µ-op beyond the layers timed
	// standalone (wakeup/select, LSQ, commit; wrong-path generation is not
	// subtracted). The core's stream is generated, never decoded.
	perUOp := func(ns float64, k int64) float64 { return ns * ratio(k, c.uops) }
	m["core.other_ns_per_uop"] = m["core.ns_per_uop"] - m["trace.gen_ns_per_uop"] -
		perUOp(m["bpred.tage_ns_per_branch"]+m["bpred.btb_ns_per_lookup"], c.branches) -
		perUOp(m["cache.l1d_ns_per_access"]+m["memdep.ns_per_mem_uop"], c.mem) -
		perUOp(m["regfile.ns_per_rename"], c.renames) -
		perUOp(m["predict.ns_per_load"], c.loads)

	m["sim.cell_ms"] = ms("sim.cell")
	poolDur, poolCells, _ := rec.total("sim.pool")
	runnerDur, _, _ := rec.total("sim.runner")
	m["sim.pool_us_per_cell"] = ratio((poolDur-runnerDur).Nanoseconds(), poolCells) / 1e3
	m["sim.dedupkey_us"] = us("sim.dedupkey")
	m["sim.dedup_hit_us"] = us("sim.dedup_hit")
	m["sim.ckpt_record_us"] = us("sim.ckpt_record")
	m["sim.ckpt_flush_ms"] = ms("sim.ckpt_flush")
	if plan.cache != nil {
		st := plan.cache.Stats()
		m["sim.hit_ratio"] = ratio(st.Hits+st.Deduped, st.Hits+st.Deduped+st.Simulated)
	}
	m["service.submit_us"] = us("service.submit")
	m["service.queue_wait_ms"] = ms("service.queue_wait")
	m["service.stream_us_per_cell"] = us("service.stream")
	m["service.http_floor_us"] = us("service.healthz")
	m["specsched.spec_validate_us"] = us("specsched.spec_validate")
	return m, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// driveSource generates the workload's correct-path µ-op stream the way
// its cells get it and times the wrong-path filler the core draws on after
// a misprediction. With plan.traceio it also records the stream to a trace
// in memory, opens it and decodes it, and checks the decoded stream is the
// generated one.
func driveSource(rec *recorder, plan layerPlan, wl string, n int64) ([]uop.UOp, error) {
	p, err := trace.ByName(wl)
	if err != nil {
		return nil, err
	}
	buf := make([]uop.UOp, n)
	g := trace.New(p)
	rec.timed("trace.gen", -1, wl, n, func() {
		for i := range buf {
			g.NextInto(&buf[i])
		}
	})
	if plan.traceio {
		var data bytes.Buffer
		rec.timed("traceio.record", -1, wl, n, func() {
			_, err = traceio.Record(&data, trace.New(p), n, "perfbench", p.Seed)
		})
		if err != nil {
			return nil, err
		}
		var d *traceio.Decoder
		rec.timed("traceio.open", -1, wl, 1, func() { d, err = traceio.NewDecoder(bytes.NewReader(data.Bytes())) })
		if err != nil {
			return nil, err
		}
		dec := make([]uop.UOp, n)
		rec.timed("traceio.decode", -1, wl, n, func() {
			for i := range dec {
				d.NextInto(&dec[i])
			}
		})
		if d.Err() != nil {
			return nil, d.Err()
		}
		for i, u := range buf {
			if !u.Class.IsMem() {
				u.Size = 0 // a trace keeps the access size of loads and stores only
			}
			if dec[i] != u {
				return nil, fmt.Errorf("%s: decoded µ-op %d differs from the generated one", wl, i)
			}
		}
	}
	wp := trace.NewWrongPath(p.Seed, 4<<10)
	var u uop.UOp
	rec.timed("trace.wrongpath", -1, wl, n, func() {
		for range n {
			wp.NextInto(&u)
		}
	})
	return buf, nil
}

// uopCounts are the stream's per-kind counts the µ-op layers saw.
type uopCounts struct {
	uops, branches, mem, loads, renames, l1Misses int64
}

func (c *uopCounts) add(o uopCounts) {
	c.uops += o.uops
	c.branches += o.branches
	c.mem += o.mem
	c.loads += o.loads
	c.renames += o.renames
	c.l1Misses += o.l1Misses
}

// dramBackend adapts a DRAM to the cache hierarchy's backend interface.
type dramBackend struct{ d *dram.DRAM }

func (b dramBackend) Access(addr, _ uint64, now int64, write bool) int64 {
	return b.d.Access(addr, now, write)
}

// driveUOpLayers feeds one workload's µ-op stream through the per-µ-op
// layers — branch prediction, the L1D/L2/DRAM hierarchy, store sets,
// renaming and the load predictors — with one µ-op per cycle.
func driveUOpLayers(rec *recorder, cfg *config.CoreConfig, wl string, buf []uop.UOp) uopCounts {
	c := uopCounts{uops: int64(len(buf))}
	var branches, mem []*uop.UOp
	for i := range buf {
		u := &buf[i]
		switch {
		case u.Class == uop.ClassBranch:
			branches = append(branches, u)
		case u.Class.IsMem():
			mem = append(mem, u)
			if u.Class == uop.ClassLoad {
				c.loads++
			}
		}
		if u.HasDest() {
			c.renames++
		}
	}
	c.branches, c.mem = int64(len(branches)), int64(len(mem))

	tage := bpred.NewTAGE(cfg)
	rec.timed("bpred.tage", -1, wl, c.branches, func() {
		for _, u := range branches {
			p := tage.Predict(u.PC)
			tage.UpdateHistory(u.Taken)
			tage.Update(u.PC, u.Taken, p)
		}
	})
	var snap bpred.Snapshot
	rec.timed("bpred.snapshot", -1, wl, c.branches, func() {
		for range branches {
			tage.SnapshotInto(&snap)
			tage.RestoreFrom(&snap)
		}
	})
	btb := bpred.NewBTB(cfg.BTBEntries, cfg.BTBWays)
	rec.timed("bpred.btb", -1, wl, c.branches, func() {
		for _, u := range branches {
			if _, ok := btb.Lookup(u.PC); !ok && u.Taken {
				btb.Insert(u.PC, u.Target)
			}
		}
	})

	// L1D with the full hierarchy below it; its misses then drive a
	// standalone L2, and the L2's misses a standalone DRAM.
	l1 := cache.NewL1D(cfg, cache.NewL2(cfg, dramBackend{dram.New(cfg.DRAM)}))
	hits := make([]bool, 0, c.loads)
	type access struct {
		addr, pc uint64
		now      int64
	}
	misses := make([]access, 0, c.loads)
	rec.timed("cache.l1d", -1, wl, c.mem, func() {
		for _, u := range mem {
			now := u.Seq
			if u.Class == uop.ClassStore {
				l1.Store(u.Addr, u.PC, now)
				continue
			}
			r := l1.Load(u.Addr, u.PC, now)
			hits = append(hits, r.Hit)
			if !r.Hit {
				misses = append(misses, access{u.Addr, u.PC, now})
			}
		}
	})
	c.l1Misses = int64(len(misses))
	l2 := cache.NewL2(cfg, dramBackend{dram.New(cfg.DRAM)})
	var l2Misses []access
	rec.timed("cache.l2", -1, wl, int64(len(misses)), func() {
		for _, a := range misses {
			if l2.Access(a.addr, a.pc, a.now, false) > l2.Latency() {
				l2Misses = append(l2Misses, a)
			}
		}
	})
	d := dram.New(cfg.DRAM)
	rec.timed("dram", -1, wl, int64(len(l2Misses)), func() {
		for _, a := range l2Misses {
			d.Access(a.addr, a.now, false)
		}
	})

	ss := memdep.New(1024, 1024)
	rec.timed("memdep", -1, wl, c.mem, func() {
		for _, u := range mem {
			if u.Class == uop.ClassStore {
				ss.RenameStore(u.PC, u.Seq)
				ss.StoreExecuted(u.PC, u.Seq)
			} else {
				ss.RenameLoad(u.PC)
			}
		}
	})

	// Rename every destination and commit in order once a ROB's worth is
	// in flight (or sooner, when a free list runs dry).
	rm := regfile.New(cfg.IntPRF, cfg.FPPRF)
	inflight := make([]int, 0, c.renames)
	head := 0
	rec.timed("regfile", -1, wl, c.renames, func() {
		for i := range buf {
			u := &buf[i]
			if !u.HasDest() {
				continue
			}
			for !rm.CanRename(u.Dest) || len(inflight)-head >= cfg.ROBEntries {
				rm.Commit(inflight[head])
				head++
			}
			_, old, _ := rm.Rename(u.Dest)
			inflight = append(inflight, old)
		}
	})

	filter := predict.NewFilter(cfg.FilterEntries, cfg.FilterResetInterval, cfg.FilterNoSilence)
	crit := predict.NewCriticality(cfg.CritEntries, cfg.CritCtrBits)
	bank := predict.NewBankPredictor(max(cfg.BankPredEntries, 64))
	rec.timed("predict", -1, wl, c.loads, func() {
		k := 0
		for _, u := range mem {
			if u.Class != uop.ClassLoad {
				continue
			}
			filter.Predict(u.PC)
			filter.Update(u.PC, hits[k])
			crit.Critical(u.PC)
			crit.Update(u.PC, !hits[k])
			bank.Predict(u.PC)
			bank.Update(u.PC, l1.BankOf(u.Addr))
			k++
		}
	})
	return c
}

// coreCells are the cells the core drive ran, with their summed counters.
type coreCells struct {
	cells  []sim.Cell
	runs   []*stats.Run
	run    stats.Run // counters summed over runs
	cycles int64     // total simulated cycles, warm-up included
}

// driveCore builds and runs o.scale.layerCells cells of the workload's
// (preset × workload) grid on the core directly.
func driveCore(ctx context.Context, o options, rec *recorder, plan layerPlan) (coreCells, error) {
	var cc coreCells
	for i := range o.scale.layerCells {
		cfgName := plan.configs[i%len(plan.configs)]
		wl := benchWorkloads[i%len(benchWorkloads)]
		cfg, err := config.Preset(cfgName)
		if err != nil {
			return cc, err
		}
		p, err := trace.ByName(wl)
		if err != nil {
			return cc, err
		}
		stream, wpSeed := trace.New(p), p.Seed
		id := cfgName + "/" + wl
		var c *core.Core
		rec.timed("core.new", -1, id, 1, func() { c, err = core.New(cfg, stream, wpSeed) })
		if err != nil {
			return cc, err
		}
		c.SetWorkloadName(wl)
		var run *stats.Run
		rec.timed("core.run", -1, id, plan.warmup+plan.measure, func() {
			run, err = c.RunContext(ctx, plan.warmup, plan.measure)
		})
		if err != nil {
			return cc, err
		}
		cc.cells = append(cc.cells, sim.Cell{Config: cfg, Workload: wl})
		cc.runs = append(cc.runs, run)
		cc.run.Accumulate(run)
		cc.cycles += c.Cycle()
	}
	return cc, nil
}

// timedRunner is the in-process cell runner with a span around each cell,
// so the pool's own cost is the pool span minus its runner spans.
type timedRunner struct {
	sim.LocalRunner
	rec    *recorder
	parent int
}

func (t timedRunner) RunCell(ctx context.Context, cell sim.Cell, attempt int) (run *stats.Run, err error) {
	t.rec.timed("sim.runner", t.parent, cell.Key(), 1, func() {
		run, err = t.LocalRunner.RunCell(ctx, cell, attempt)
	})
	return run, err
}

// driveSim times SimulateCell on the core drive's cells and checks it
// agrees with the direct core run, times the pool around the same cells,
// and — where the workload uses them — the dedup cache and the checkpoint.
func driveSim(ctx context.Context, o options, rec *recorder, plan layerPlan, cc coreCells) error {
	for i, cell := range cc.cells {
		var run *stats.Run
		var err error
		rec.timed("sim.cell", -1, cell.Key(), 1, func() {
			run, err = sim.SimulateCell(ctx, cell, plan.warmup, plan.measure, nil)
		})
		if err != nil {
			return err
		}
		if run.MaskSchedulerCounters() != cc.runs[i].MaskSchedulerCounters() {
			return fmt.Errorf("SimulateCell %s differs from the direct core run", cell.Key())
		}
	}
	pool := &sim.Pool{Jobs: 1}
	p := rec.begin("sim.pool", -1, "")
	res := pool.RunWith(ctx, cc.cells, timedRunner{
		LocalRunner: sim.LocalRunner{Warmup: plan.warmup, Measure: plan.measure},
		rec:         rec, parent: p})
	rec.end(p, int64(len(cc.cells)))
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}

	cell, run := cc.cells[0], cc.runs[0]
	if plan.cache != nil {
		var key string
		rec.timed("sim.dedupkey", -1, cell.Key(), keyIters, func() {
			for range keyIters {
				key = sim.DedupKey(cell, plan.warmup, plan.measure, nil)
			}
		})
		dc := sim.NewDedupCache(16)
		fn := func() (*stats.Run, error) { return run, nil }
		if _, _, err := dc.Do(ctx, key, fn); err != nil {
			return err
		}
		var err error
		rec.timed("sim.dedup_hit", -1, cell.Key(), keyIters, func() {
			for range keyIters {
				if _, _, e := dc.Do(ctx, key, fn); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
	}
	if plan.checkpoint {
		dir, err := os.MkdirTemp(o.out, "ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cp, err := sim.LoadCheckpoint(filepath.Join(dir, "layer.ckpt"), sim.Fingerprint(plan.warmup, plan.measure, config.SchedEvent))
		if err != nil {
			return err
		}
		// Seven records then a Flush, so no Record reaches the checkpoint's
		// own every-eighth-cell flush and each span times one step alone.
		for k := range ckptRecords {
			c := cell
			c.SeedIdx = k
			rec.timed("sim.ckpt_record", -1, c.Key(), 1, func() { cp.Record(c, run) })
			if k%7 == 6 {
				rec.timed("sim.ckpt_flush", -1, "", 1, func() { err = cp.Flush() })
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Worker drive windows: small, so a cell's time is mostly the worker's
// own cost (process start, framing) rather than simulation.
const workerWarmup, workerMeasure = 1000, 4000

// driveWorker starts a one-process worker pool and runs the core drive's
// cells in it, each right after the same cell in-process, at the worker
// drive windows. spawn_ms is the time from NewPool to the first cell's
// result less that cell's in-process time; overhead_ms_per_cell is the
// median of the same difference over the later cells.
func driveWorker(ctx context.Context, rec *recorder, cc coreCells, m map[string]float64) error {
	local := func(cell sim.Cell) (run *stats.Run, d time.Duration, err error) {
		d = rec.timed("worker.local", -1, cell.Key(), 1, func() {
			run, err = sim.SimulateCell(ctx, cell, workerWarmup, workerMeasure, nil)
		})
		return run, d, err
	}
	first, firstDur, err := local(cc.cells[0])
	if err != nil {
		return err
	}
	t0 := time.Now()
	wp, err := worker.NewPool(worker.Options{Workers: 1, Warmup: workerWarmup, Measure: workerMeasure})
	if err != nil {
		return err
	}
	defer wp.Close()
	var overhead []float64
	for i := range workerReps * len(cc.cells) {
		cell := cc.cells[i%len(cc.cells)]
		want, wantDur := first, firstDur
		if i > 0 {
			if want, wantDur, err = local(cell); err != nil {
				return err
			}
		}
		var run *stats.Run
		d := rec.timed("worker.cell", -1, cell.Key(), 1, func() { run, err = wp.RunCell(ctx, cell, 0) })
		if i == 0 {
			m["worker.spawn_ms"] = float64(time.Since(t0)-wantDur) / 1e6
		} else {
			overhead = append(overhead, float64(d-wantDur)/1e6)
		}
		if err != nil {
			return err
		}
		if run.MaskSchedulerCounters() != want.MaskSchedulerCounters() {
			return fmt.Errorf("worker cell %s differs from the in-process run", cell.Key())
		}
	}
	m["worker.overhead_ms_per_cell"] = median(overhead)
	m["worker.restarts"] = float64(wp.Stats().Restarts)
	return nil
}

// driveService measures the daemon's transport floor (GET /healthz) and the
// spec validation every submission goes through.
func driveService(ctx context.Context, rec *recorder, b *serveBench) error {
	var err error
	rec.timed("service.healthz", -1, "", httpIters, func() {
		for range httpIters {
			code, e := b.get(ctx, "/healthz")
			if e == nil && code != 200 {
				e = fmt.Errorf("healthz: HTTP %d", code)
			}
			if e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	rec.timed("specsched.spec_validate", -1, "", keyIters, func() {
		for i := range keyIters {
			if _, e := specsched.NewSweepFromSpec(b.hitSpecs[i%len(b.hitSpecs)]); e != nil {
				err = e
			}
		}
	})
	return err
}
