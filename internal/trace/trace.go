// Package trace generates the deterministic, synthetic µ-op streams that
// substitute for the paper's SPEC CPU2000/2006 SimPoint slices (see
// DESIGN.md §2 for the substitution argument). A workload is a synthetic
// *program*: a static control-flow graph of basic blocks whose instruction
// slots have fixed classes, fixed register templates and — for memory
// slots — a fixed address-stream family. Walking the CFG yields a dynamic
// µ-op stream with stable per-PC behaviour, which is what the paper's
// PC-indexed predictors (hit/miss filter, criticality table, TAGE, stride
// prefetcher) require to be exercised meaningfully.
package trace

import (
	"fmt"

	"specsched/internal/rng"
	"specsched/internal/uop"
)

// Profile parameterizes a synthetic workload. The fields control the
// statistical structure that drives scheduling behaviour: instruction mix,
// dependence distances (ILP), address streams (cache hit rates and bank
// behaviour) and branch predictability.
type Profile struct {
	Name string
	Seed uint64

	// Static program shape.
	Blocks   int // number of basic blocks
	BlockLen int // mean non-branch µ-ops per block

	// Instruction mix.
	LoadFrac   float64 // fraction of slots that are loads
	StoreFrac  float64 // fraction of slots that are stores
	FPFrac     float64 // fraction of compute slots that are FP
	MulDivFrac float64 // fraction of compute slots that are long-latency

	// Dependence structure.
	MeanDepDist float64 // mean register dependence distance in µ-ops
	UseBaseFrac float64 // fraction of sources reading loop-invariant bases
	// AddrDepFrac is the fraction of (non-chase) loads whose address
	// register comes from a recent result instead of a loop-invariant
	// base — pointer arithmetic that puts the load on a dependence chain
	// and makes the load-to-use latency matter.
	AddrDepFrac float64
	// LoadUseFrac is the probability that the first compute µ-op after a
	// load consumes that load's result — the classic load-use pair that
	// makes the effective load-to-use latency visible. Real code
	// consumes almost every load quickly; without this coupling,
	// conservative scheduling (Fig. 3) would look nearly free.
	LoadUseFrac float64

	// PaperIPC is the IPC the paper's Table 2 reports for the benchmark
	// this profile imitates (0 for kernels); used for calibration checks
	// and EXPERIMENTS.md comparisons, never by the generator itself.
	PaperIPC float64

	// Address streams; memory slots bind to one family by Weight.
	Agens []AgenSpec

	// Branch behaviour (one conditional branch per block).
	InnerLoopFrac    float64 // blocks ending in a self-loop branch
	LoopTrip         int     // trip count of self-loops
	SkipFrac         float64 // blocks ending in a biased forward skip
	SkipBias         float64 // taken probability of skips
	RandomBranchFrac float64 // blocks ending in an unpredictable branch
}

// WithSeed returns a copy of the profile with its RNG seed replaced — the
// hook internal/sim uses to run decorrelated seed replicas of one workload.
// The static program shape is a function of the seed, so two replicas of a
// profile are distinct-but-statistically-alike programs.
func (p Profile) WithSeed(seed uint64) Profile {
	p.Seed = seed
	return p
}

// Validate reports obviously broken profiles.
func (p *Profile) Validate() error {
	switch {
	case p.Blocks < 2:
		return fmt.Errorf("trace: profile %q needs at least 2 blocks", p.Name)
	case p.BlockLen < 1:
		return fmt.Errorf("trace: profile %q needs positive block length", p.Name)
	case p.LoadFrac < 0 || p.StoreFrac < 0 || p.LoadFrac+p.StoreFrac > 0.9:
		return fmt.Errorf("trace: profile %q memory mix out of range", p.Name)
	case len(p.Agens) == 0 && p.LoadFrac+p.StoreFrac > 0:
		return fmt.Errorf("trace: profile %q has memory slots but no address streams", p.Name)
	}
	return nil
}

type branchKind uint8

const (
	brLoop branchKind = iota
	brBiased
	brPattern
	brBack
)

// slotSpec is one static instruction slot of a basic block.
type slotSpec struct {
	class uop.Class
	gen   *agen // memory slots only
	// lastChaseDest is runtime state for chase slots: the architectural
	// register holding the previously loaded pointer.
	lastChaseDest int
}

type blockSpec struct {
	pc    uint64
	slots []slotSpec

	brPC     uint64
	brKind   branchKind
	trip     int
	bias     float64
	pattern  uint64
	patLen   int
	takenIdx int
	ntIdx    int
}

// Generator walks a synthetic program and implements uop.Stream. The stream
// is infinite and deterministic for a given profile.
type Generator struct {
	prof    Profile
	program []blockSpec
	r       *rng.RNG

	cur  int
	slot int
	seq  int64

	loopCount []int
	patPhase  []int

	destRing [64]int
	ringPos  int
	ringLive int

	// Precomputed geometric samplers for the two fixed means the hot
	// emission path draws from every few µ-ops.
	depDist  rng.GeometricSampler
	addrDist rng.GeometricSampler

	// pendingLoadDest is the most recent load destination not yet
	// consumed by a load-use pair, or RegNone.
	pendingLoadDest int

	nextIntDest int
	nextFPDest  int
}

// Register conventions: r0..r5 and f0..f3 are loop-invariant bases; the
// remaining registers are destination pools.
const (
	numIntBases  = 6
	numFPBases   = 4
	firstIntDest = numIntBases
	firstFPDest  = uop.NumIntRegs + numFPBases
	codeBase     = 0x400000
	blockSpan    = 0x400 // bytes of address space per block
)

// New constructs a generator for the profile. It panics on invalid
// profiles (construction is programmer-driven; presets are always valid).
func New(p Profile) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof:            p,
		r:               rng.New(p.Seed ^ 0xabcdef123456),
		nextIntDest:     firstIntDest,
		nextFPDest:      firstFPDest,
		pendingLoadDest: uop.RegNone,
		depDist:         rng.NewGeometricSampler(p.MeanDepDist),
		addrDist:        rng.NewGeometricSampler(3),
	}
	g.build()
	g.loopCount = make([]int, len(g.program))
	g.patPhase = make([]int, len(g.program))
	for i := range g.destRing {
		g.destRing[i] = i % numIntBases // harmless initial sources
	}
	return g
}

// build synthesizes the static program in two passes: the control-flow
// plan first (which fixes each block's expected execution frequency), then
// the instruction slots. Memory slots bind to address-stream families by
// hotness-weighted greedy deficit matching, so the *dynamic* share of each
// family tracks its configured Weight even though inner-loop blocks
// execute orders of magnitude more often than skipped ones.
func (g *Generator) build() {
	r := g.r.Fork()

	// Pass 1: branch plan and block hotness.
	type brPlan struct {
		kind    branchKind
		trip    int
		bias    float64
		pattern uint64
		patLen  int
	}
	plans := make([]brPlan, g.prof.Blocks)
	hot := make([]float64, g.prof.Blocks)
	for b := range plans {
		hot[b] = 1
		x := r.Float64()
		switch {
		case b == g.prof.Blocks-1:
			plans[b].kind = brBack
		case x < g.prof.InnerLoopFrac:
			plans[b].kind = brLoop
			plans[b].trip = g.prof.LoopTrip + r.Intn(g.prof.LoopTrip/2+1)
			hot[b] = float64(plans[b].trip)
		case x < g.prof.InnerLoopFrac+g.prof.SkipFrac:
			plans[b].kind = brBiased
			plans[b].bias = g.prof.SkipBias
		case x < g.prof.InnerLoopFrac+g.prof.SkipFrac+g.prof.RandomBranchFrac:
			plans[b].kind = brBiased
			plans[b].bias = 0.5
		default:
			plans[b].kind = brPattern
			plans[b].patLen = 2 + r.Intn(6)
			plans[b].pattern = r.Uint64()
		}
	}

	// Pass 2: slots, with deficit-matched family binding.
	totalWeight := 0.0
	for _, a := range g.prof.Agens {
		totalWeight += a.Weight
	}
	assigned := make([]float64, len(g.prof.Agens))
	assignedTotal := 0.0
	pickAgen := func(h float64) (AgenSpec, int) {
		best, bestDeficit := 0, -1e18
		for i, a := range g.prof.Agens {
			deficit := a.Weight/totalWeight*(assignedTotal+h) - assigned[i]
			if deficit > bestDeficit {
				best, bestDeficit = i, deficit
			}
		}
		assigned[best] += h
		assignedTotal += h
		return g.prof.Agens[best], best
	}

	for b := 0; b < g.prof.Blocks; b++ {
		n := g.prof.BlockLen
		if n > 2 {
			n += r.Intn(n/2+1) - n/4 // ±25% jitter
		}
		if n < 1 {
			n = 1
		}
		blk := blockSpec{pc: codeBase + uint64(b)*blockSpan}
		for s := 0; s < n; s++ {
			var spec slotSpec
			x := r.Float64()
			switch {
			case x < g.prof.LoadFrac:
				spec.class = uop.ClassLoad
				as, fam := pickAgen(hot[b])
				spec.gen = newAgen(as, fam, r)
				spec.lastChaseDest = uop.RegNone
			case x < g.prof.LoadFrac+g.prof.StoreFrac:
				spec.class = uop.ClassStore
				as, fam := pickAgen(hot[b])
				// Stores never chase.
				if as.Kind == AgenChase {
					as.Kind = AgenRandom
				}
				spec.gen = newAgen(as, fam, r)
			default:
				spec.class = g.computeClass(r, hot[b] > 1)
			}
			blk.slots = append(blk.slots, spec)
		}
		blk.brPC = blk.pc + uint64(len(blk.slots))*4

		next := (b + 1) % g.prof.Blocks
		skipTo := (b + 2) % g.prof.Blocks
		p := plans[b]
		blk.brKind = p.kind
		blk.trip = p.trip
		blk.bias = p.bias
		blk.pattern = p.pattern
		blk.patLen = p.patLen
		switch p.kind {
		case brBack:
			blk.takenIdx, blk.ntIdx = 0, 0
		case brLoop:
			blk.takenIdx, blk.ntIdx = b, next
		default:
			blk.takenIdx, blk.ntIdx = skipTo, next
		}
		g.program = append(g.program, blk)
	}
}

// computeClass draws a compute µ-op class. Unpipelined divides are never
// placed in hot loop bodies — compilers hoist them — which keeps a
// workload's throughput from being capped by a single unlucky draw.
func (g *Generator) computeClass(r *rng.RNG, hotLoop bool) uop.Class {
	fp := r.Bool(g.prof.FPFrac)
	long := r.Bool(g.prof.MulDivFrac)
	switch {
	case fp && long:
		if !hotLoop && r.Bool(0.2) {
			return uop.ClassFPDiv
		}
		return uop.ClassFPMul
	case fp:
		return uop.ClassFP
	case long:
		if !hotLoop && r.Bool(0.15) {
			return uop.ClassDiv
		}
		return uop.ClassMul
	default:
		return uop.ClassALU
	}
}

// pushDest records a newly written architectural register.
func (g *Generator) pushDest(reg int) {
	g.ringPos = (g.ringPos + 1) & 63
	g.destRing[g.ringPos] = reg
	if g.ringLive < 64 {
		g.ringLive++
	}
}

// srcReg picks a source register according to the dependence model.
func (g *Generator) srcReg() int {
	if g.r.Bool(g.prof.UseBaseFrac) || g.ringLive == 0 {
		return g.r.Intn(numIntBases)
	}
	d := g.depDist.Sample(g.r)
	if d > g.ringLive {
		d = g.ringLive
	}
	return g.destRing[(g.ringPos-d+1+64)&63]
}

// loadUseOrSrc consumes the pending load result with probability
// LoadUseFrac, else falls back to the general source model.
func (g *Generator) loadUseOrSrc() int {
	if g.pendingLoadDest != uop.RegNone && g.r.Bool(g.prof.LoadUseFrac) {
		d := g.pendingLoadDest
		g.pendingLoadDest = uop.RegNone
		return d
	}
	return g.srcReg()
}

func (g *Generator) allocIntDest() int {
	d := g.nextIntDest
	g.nextIntDest++
	if g.nextIntDest >= uop.NumIntRegs {
		g.nextIntDest = firstIntDest
	}
	return d
}

func (g *Generator) allocFPDest() int {
	d := g.nextFPDest
	g.nextFPDest++
	if g.nextFPDest >= uop.NumArchRegs {
		g.nextFPDest = firstFPDest
	}
	return d
}

// NextInto implements uop.Stream, emitting the next correct-path µ-op
// directly into dst on the simulator's per-µop hot path. The stream never
// ends.
func (g *Generator) NextInto(dst *uop.UOp) bool {
	blk := &g.program[g.cur]
	if g.slot < len(blk.slots) {
		spec := &blk.slots[g.slot]
		g.emitSlot(blk, spec, dst)
		g.slot++
		return true
	}
	// Branch slot.
	g.emitBranch(blk, dst)
	g.slot = 0
	return true
}

func (g *Generator) emitSlot(blk *blockSpec, spec *slotSpec, dst *uop.UOp) {
	g.seq++
	// Explicit field stores: a composite-literal assignment through the
	// pointer would build a stack temporary and block copy it.
	dst.Seq = g.seq
	dst.PC = blk.pc + uint64(g.slot)*4
	dst.Class = spec.class
	dst.Src1 = uop.RegNone
	dst.Src2 = uop.RegNone
	dst.Dest = uop.RegNone
	dst.Addr = 0
	dst.Size = 8
	dst.Taken = false
	dst.Target = 0
	dst.WrongPath = false
	u := dst
	switch spec.class {
	case uop.ClassLoad:
		switch {
		case spec.gen.serialize && spec.lastChaseDest != uop.RegNone:
			u.Src1 = spec.lastChaseDest
		case g.r.Bool(g.prof.AddrDepFrac) && g.ringLive > 0:
			// Address computed from a recent result: the load joins a
			// dependence chain.
			d := g.addrDist.Sample(g.r)
			if d > g.ringLive {
				d = g.ringLive
			}
			u.Src1 = g.destRing[(g.ringPos-d+1+64)&63]
		default:
			u.Src1 = g.r.Intn(numIntBases)
		}
		u.Addr = spec.gen.next()
		u.Dest = g.allocIntDest()
		if spec.gen.serialize {
			spec.lastChaseDest = u.Dest
		}
		g.pendingLoadDest = u.Dest
		g.pushDest(u.Dest)
	case uop.ClassStore:
		u.Src1 = g.srcReg() // data
		u.Src2 = g.r.Intn(numIntBases)
		u.Addr = spec.gen.next()
	case uop.ClassFP, uop.ClassFPMul, uop.ClassFPDiv:
		u.Src1 = g.loadUseOrSrc()
		u.Src2 = g.srcReg()
		u.Dest = g.allocFPDest()
		g.pushDest(u.Dest)
	default: // ALU, Mul, Div
		u.Src1 = g.loadUseOrSrc()
		if g.r.Bool(0.6) {
			u.Src2 = g.srcReg()
		}
		u.Dest = g.allocIntDest()
		g.pushDest(u.Dest)
	}
}

func (g *Generator) emitBranch(blk *blockSpec, dst *uop.UOp) {
	g.seq++
	bIdx := g.cur
	taken := false
	switch blk.brKind {
	case brBack:
		taken = true
	case brLoop:
		g.loopCount[bIdx]++
		if g.loopCount[bIdx] < blk.trip {
			taken = true
		} else {
			g.loopCount[bIdx] = 0
		}
	case brBiased:
		taken = g.r.Bool(blk.bias)
	case brPattern:
		taken = (blk.pattern>>(uint(g.patPhase[bIdx])%uint(blk.patLen)))&1 == 1
		g.patPhase[bIdx]++
		if g.patPhase[bIdx] >= blk.patLen {
			g.patPhase[bIdx] = 0
		}
	}
	next := blk.ntIdx
	if taken {
		next = blk.takenIdx
	}
	dst.Seq = g.seq
	dst.PC = blk.brPC
	dst.Class = uop.ClassBranch
	dst.Src1 = g.destRing[g.ringPos] // depends on the latest result
	dst.Src2 = uop.RegNone
	dst.Dest = uop.RegNone
	dst.Addr = 0
	dst.Size = 0
	dst.Taken = taken
	dst.Target = g.program[next].pc
	dst.WrongPath = false
	if !taken {
		// For a not-taken branch the "target" field carries the
		// fall-through PC (the next sequential block).
		dst.Target = g.program[blk.ntIdx].pc
	}
	g.cur = next
}

// StaticSlots returns the number of static µ-op slots (including branches),
// useful for sizing expectations in tests.
func (g *Generator) StaticSlots() int {
	n := 0
	for i := range g.program {
		n += len(g.program[i].slots) + 1
	}
	return n
}
