package core

import (
	"testing"

	"specsched/internal/config"
	"specsched/internal/trace"
	"specsched/internal/uop"
)

// scriptStream replays a fixed µ-op slice, then loops it with fresh
// sequence numbers — a minimal deterministic stimulus for micro-tests.
type scriptStream struct {
	ops []uop.UOp
	i   int
	seq int64
}

func (s *scriptStream) NextInto(dst *uop.UOp) bool {
	*dst = s.ops[s.i%len(s.ops)]
	s.i++
	s.seq++
	dst.Seq = s.seq
	return true
}

// mispredictingLoop builds a loop whose branch direction is a coin flip
// driven by the iteration parity of a long pattern TAGE cannot fully learn
// in a short run — actually: a branch alternating in a prime-period
// pattern. Used to measure the misprediction penalty.
func aluChain(n int) []uop.UOp {
	ops := make([]uop.UOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, uop.UOp{
			PC: uint64(0x1000 + i*4), Class: uop.ClassALU,
			Src1: 6, Src2: uop.RegNone, Dest: 6,
		})
	}
	return ops
}

func TestSerialALUChainIPC(t *testing.T) {
	// A pure serial chain (every ALU reads and writes r6) can never
	// exceed IPC 1, and with back-to-back wakeup should achieve ~1.
	cfg, _ := config.Preset("Baseline_0")
	c := MustNew(cfg, &scriptStream{ops: aluChain(64)}, 1)
	r := c.Run(2000, 20000)
	if ipc := r.IPC(); ipc > 1.01 || ipc < 0.9 {
		t.Fatalf("serial ALU chain IPC = %.3f, want ~1.0", ipc)
	}
}

func TestSerialChainUnaffectedByDelayUnderSpec(t *testing.T) {
	// Fixed-latency producers wake dependents back-to-back regardless of
	// the issue-to-execute delay: the serial chain must not slow down
	// from Baseline_0 to SpecSched_6 (no loads involved).
	cfg0, _ := config.Preset("Baseline_0")
	cfg6, _ := config.Preset("SpecSched_6")
	r0 := MustNew(cfg0, &scriptStream{ops: aluChain(64)}, 1).Run(2000, 20000)
	r6 := MustNew(cfg6, &scriptStream{ops: aluChain(64)}, 1).Run(2000, 20000)
	if r6.IPC() < 0.95*r0.IPC() {
		t.Fatalf("ALU chain slowed by delay: %.3f vs %.3f", r6.IPC(), r0.IPC())
	}
}

func TestWideIndependentALUHitsIssueWidth(t *testing.T) {
	// Independent ALU µ-ops reading loop-invariant bases should saturate
	// near the 4-ALU limit (issue width 6 but only 4 ALUs).
	ops := make([]uop.UOp, 0, 32)
	for i := 0; i < 32; i++ {
		ops = append(ops, uop.UOp{
			PC: uint64(0x2000 + i*4), Class: uop.ClassALU,
			Src1: i % 6, Src2: uop.RegNone, Dest: 6 + i%24,
		})
	}
	cfg, _ := config.Preset("Baseline_0")
	r := MustNew(cfg, &scriptStream{ops: ops}, 1).Run(2000, 20000)
	if ipc := r.IPC(); ipc < 3.5 {
		t.Fatalf("independent ALU IPC = %.3f, want ~4 (ALU-bound)", ipc)
	}
}

func TestUnpipelinedDivThroughput(t *testing.T) {
	// Independent INT divides serialize on the single unpipelined MulDiv
	// unit: throughput is bounded by 1 per 25 cycles.
	ops := make([]uop.UOp, 0, 8)
	for i := 0; i < 8; i++ {
		ops = append(ops, uop.UOp{
			PC: uint64(0x3000 + i*4), Class: uop.ClassDiv,
			Src1: i % 6, Src2: uop.RegNone, Dest: 6 + i%8,
		})
	}
	cfg, _ := config.Preset("Baseline_0")
	r := MustNew(cfg, &scriptStream{ops: ops}, 1).Run(200, 2000)
	maxIPC := 1.0 / float64(uop.ClassDiv.Latency())
	if ipc := r.IPC(); ipc > maxIPC*1.1 {
		t.Fatalf("div IPC = %.4f exceeds unpipelined bound %.4f", ipc, maxIPC)
	}
}

func TestPipelinedMulThroughput(t *testing.T) {
	// Independent multiplies are pipelined on one unit: ~1 per cycle.
	ops := make([]uop.UOp, 0, 8)
	for i := 0; i < 8; i++ {
		ops = append(ops, uop.UOp{
			PC: uint64(0x4000 + i*4), Class: uop.ClassMul,
			Src1: i % 6, Src2: uop.RegNone, Dest: 6 + i%8,
		})
	}
	cfg, _ := config.Preset("Baseline_0")
	r := MustNew(cfg, &scriptStream{ops: ops}, 1).Run(500, 5000)
	if ipc := r.IPC(); ipc < 0.85 {
		t.Fatalf("pipelined mul IPC = %.3f, want ~1 (single MulDiv unit)", ipc)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load reading the quadword a just-executed store wrote must
	// forward from the SQ: it counts as a hit even though the line was
	// never in the cache, and triggers no replay.
	ops := []uop.UOp{
		{PC: 0x5000, Class: uop.ClassALU, Src1: 0, Src2: uop.RegNone, Dest: 6},
		{PC: 0x5004, Class: uop.ClassStore, Src1: 6, Src2: 1, Dest: uop.RegNone, Addr: 0x66660000, Size: 8},
		{PC: 0x5008, Class: uop.ClassLoad, Src1: 2, Src2: uop.RegNone, Dest: 7, Addr: 0x66660000, Size: 8},
		{PC: 0x500c, Class: uop.ClassALU, Src1: 7, Src2: uop.RegNone, Dest: 8},
	}
	cfg, _ := config.Preset("SpecSched_4")
	c := MustNew(cfg, &scriptStream{ops: ops}, 1)
	r := c.Run(400, 4000)
	if r.L1MissRate() > 0.2 {
		t.Fatalf("forwarded loads counted as misses: miss rate %.3f", r.L1MissRate())
	}
	if r.LateOperands != 0 {
		t.Fatalf("forwarding broke the scoreboard: %d late operands", r.LateOperands)
	}
}

func TestBranchMispredictPenaltyBand(t *testing.T) {
	// A branch whose direction is a 50/50 coin flip mispredicts ~half
	// the time; each misprediction costs about the paper's 20-cycle
	// penalty. Measure CPI of a loop that is otherwise free-flowing.
	p := trace.Profile{
		Name: "coinflip", Seed: 123,
		Blocks: 4, BlockLen: 3,
		MeanDepDist: 8, UseBaseFrac: 0.8, LoadUseFrac: 0,
		Agens:            nil,
		RandomBranchFrac: 1.0, // every non-terminal block flips a coin
		LoadFrac:         0, StoreFrac: 0,
	}
	cfg, _ := config.Preset("Baseline_0")
	c := MustNew(cfg, trace.New(p), p.Seed)
	r := c.Run(5000, 40000)
	if r.Mispredicts == 0 {
		t.Fatal("coin-flip branches never mispredicted")
	}
	// Penalty per mispredict = lost cycles / mispredicts. The all-ALU
	// loop would run at ~4 IPC without mispredicts.
	idealCycles := float64(r.Committed) / 4.0
	penalty := (float64(r.Cycles) - idealCycles) / float64(r.Mispredicts)
	if penalty < 12 || penalty > 32 {
		t.Fatalf("misprediction penalty ≈ %.1f cycles, want ~20 (paper)", penalty)
	}
}

func TestPRFPressureStallsButProgresses(t *testing.T) {
	// A machine with the minimum legal PRF must still make progress
	// (dispatch stalls until commit frees registers).
	cfg, _ := config.Preset("SpecSched_4")
	cfg.IntPRF = 64
	cfg.FPPRF = 64
	p, _ := trace.ByName("gzip")
	c := MustNew(cfg, trace.New(p), p.Seed)
	r := c.Run(2000, 10000)
	if r.Committed < 10000 {
		t.Fatalf("committed %d with tiny PRF", r.Committed)
	}
	// And it must be slower than the full-size machine.
	full, _ := config.Preset("SpecSched_4")
	rf := MustNew(full, trace.New(p), p.Seed).Run(2000, 10000)
	if r.IPC() > rf.IPC()*1.02 {
		t.Fatalf("tiny PRF (%.3f) outperformed full PRF (%.3f)", r.IPC(), rf.IPC())
	}
}

func TestTinyIQStallsButProgresses(t *testing.T) {
	cfg, _ := config.Preset("SpecSched_4")
	cfg.IQEntries = 8
	p, _ := trace.ByName("swim")
	r := MustNew(cfg, trace.New(p), p.Seed).Run(2000, 10000)
	if r.Committed < 10000 {
		t.Fatalf("committed %d with 8-entry IQ", r.Committed)
	}
	full, _ := config.Preset("SpecSched_4")
	rf := MustNew(full, trace.New(p), p.Seed).Run(2000, 10000)
	if r.IPC() >= rf.IPC() {
		t.Fatalf("8-entry IQ (%.3f) not slower than 60-entry (%.3f)", r.IPC(), rf.IPC())
	}
}

func TestSingleLoadPortHalvesLoadBandwidth(t *testing.T) {
	// Fig 3's first bar: Baseline_0 with one load per cycle. The stencil
	// kernel needs ~1.3 loads/cycle at full speed, so a single port must
	// cap it visibly.
	two := runKernel(t, "Baseline_0", trace.NewStencil(8<<10), 3000, 20000)
	one := runKernel(t, "Baseline_0_1ld", trace.NewStencil(8<<10), 3000, 20000)
	if one.IPC() >= two.IPC() {
		t.Fatalf("single load port (%.3f) not slower than dual (%.3f)", one.IPC(), two.IPC())
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	cfg, _ := config.Preset("SpecSched_4")
	p, _ := trace.ByName("mcf") // long-latency loads fill the window
	c := MustNew(cfg, trace.New(p), p.Seed)
	for i := 0; i < 20000; i++ {
		c.Step()
		if len(c.rob) > cfg.ROBEntries {
			t.Fatalf("cycle %d: ROB holds %d > %d entries", i, len(c.rob), cfg.ROBEntries)
		}
		if c.iqCount > cfg.IQEntries {
			t.Fatalf("cycle %d: IQ holds %d > %d entries", i, c.iqCount, cfg.IQEntries)
		}
		if len(c.lq) > cfg.LQEntries || len(c.sq) > cfg.SQEntries {
			t.Fatalf("cycle %d: LSQ overflow (%d/%d)", i, len(c.lq), len(c.sq))
		}
	}
}

func TestRecoveryBufferStaysAgeOrdered(t *testing.T) {
	cfg, _ := config.Preset("SpecSched_4")
	p, _ := trace.ByName("xalancbmk")
	c := MustNew(cfg, trace.New(p), p.Seed)
	for i := 0; i < 30000; i++ {
		c.Step()
		for j := 1; j < len(c.recovery); j++ {
			if c.recovery[j].dynID < c.recovery[j-1].dynID {
				t.Fatalf("cycle %d: recovery buffer out of age order", i)
			}
		}
	}
}

func TestCommitStreamIsExactCorrectPath(t *testing.T) {
	// The strongest end-to-end invariant: across branch mispredictions,
	// wrong-path injection, memory-order violation squash-refetches, and
	// scheduling replays, the committed stream must be exactly the
	// correct path — every sequence number once, in order.
	for _, cfgName := range []string{"SpecSched_4", "SpecSched_4_Crit", "Baseline_4"} {
		for _, wl := range []string{"vortex", "twolf", "xalancbmk"} {
			p, _ := trace.ByName(wl)
			cfg, _ := config.Preset(cfgName)
			c := MustNew(cfg, trace.New(p), p.Seed)
			var prev int64
			bad := false
			c.CommitHook = func(u uop.UOp) {
				if u.Seq != prev+1 {
					bad = true
					t.Errorf("%s/%s: committed seq %d after %d (gap or reorder)",
						cfgName, wl, u.Seq, prev)
				}
				prev = u.Seq
			}
			c.Run(0, 20000)
			if bad {
				return
			}
			if prev < 20000 {
				t.Fatalf("%s/%s: hook saw only %d commits", cfgName, wl, prev)
			}
		}
	}
}
