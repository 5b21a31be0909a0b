package trace

import (
	"fmt"
	"sort"
)

// Footprint tiers relative to the Table 1 cache sizes (32 KB L1, 1 MB L2).
const (
	fpL1   = 8 << 10   // comfortably L1-resident
	fpEdge = 64 << 10  // twice the L1: ~50% L1 miss, L2 hit
	fpL2   = 256 << 10 // misses L1, hits L2
	fpBig  = 32 << 20  // misses everything; DRAM-bound
)

// memTier classifies a benchmark's dominant memory behaviour.
type memTier uint8

const (
	tierL1    memTier = iota // cache-friendly: a few % L1 misses
	tierL2    memTier = iota // noticeable L1 misses, L2-resident
	tierEdge                 // xalancbmk-like: ~half the loads miss L1, hit L2
	tierDRAM                 // streaming or random DRAM traffic
	tierChase                // pointer chasing in DRAM
)

// brTier classifies branch predictability (approximate MPKI bands).
type brTier uint8

const (
	brEasy brTier = iota // < 1 MPKI: loop-dominated
	brMid                // 2-6 MPKI
	brHard               // 7-12 MPKI: data-dependent branches
)

// profileRow is the calibration-facing description of one benchmark; the
// generator parameters are derived from it in deriveProfile.
type profileRow struct {
	name     string
	seed     uint64
	paperIPC float64 // Table 2
	fp       bool    // floating-point benchmark
	mem      memTier
	br       brTier
	// conflictW is the weight of the bank-conflict-prone (line-stride,
	// same-bank) stream family; Fig. 4 names the benchmarks that lose
	// > 5% to banking — they get the larger weights.
	conflictW float64
	// ilp in [0,1] scales dependence looseness beyond what paperIPC
	// implies (1 = very wide dataflow).
	ilp float64
}

// rows mirrors Table 2 of the paper: 18 INT + 18 FP benchmarks with their
// reference-input IPCs on the paper's Baseline_0.
var rows = []profileRow{
	// ---- SPEC CPU2000 ----
	{name: "gzip", seed: 1001, paperIPC: 0.906, mem: tierL1, br: brHard, ilp: 0.1},
	{name: "wupwise", seed: 1002, paperIPC: 1.392, fp: true, mem: tierL1, br: brEasy, conflictW: 0.10, ilp: 0.3},
	{name: "swim", seed: 1003, paperIPC: 2.267, fp: true, mem: tierL1, br: brEasy, conflictW: 0.25, ilp: 0.6},
	{name: "mgrid", seed: 10041, paperIPC: 2.382, fp: true, mem: tierL1, br: brEasy, conflictW: 0.12, ilp: 1.0},
	{name: "applu", seed: 1005, paperIPC: 1.424, fp: true, mem: tierL2, br: brEasy, ilp: 0.85},
	{name: "vpr", seed: 1006, paperIPC: 0.681, mem: tierL2, br: brHard, ilp: 0.3},
	{name: "mesa", seed: 1007, paperIPC: 1.335, fp: true, mem: tierL1, br: brMid, ilp: 0.65},
	{name: "art", seed: 1008, paperIPC: 0.299, fp: true, mem: tierDRAM, br: brEasy, ilp: 0.55},
	{name: "equake", seed: 1009, paperIPC: 0.494, fp: true, mem: tierDRAM, br: brMid, ilp: 0.6},
	{name: "crafty", seed: 1010, paperIPC: 1.695, mem: tierL1, br: brMid, conflictW: 0.22, ilp: 0.8},
	{name: "ammp", seed: 1011, paperIPC: 1.278, fp: true, mem: tierL2, br: brEasy, ilp: 0.75},
	{name: "parser", seed: 1012, paperIPC: 0.914, mem: tierL1, br: brHard, ilp: 0.1},
	{name: "vortex", seed: 1013, paperIPC: 1.880, mem: tierL1, br: brMid, ilp: 0.55},
	{name: "twolf", seed: 1014, paperIPC: 0.476, mem: tierL2, br: brHard, ilp: 0.1},
	// ---- SPEC CPU2006 ----
	{name: "perlbench", seed: 2001, paperIPC: 1.545, mem: tierL1, br: brMid, ilp: 0.8},
	{name: "bzip2", seed: 2002, paperIPC: 0.828, mem: tierL2, br: brHard, ilp: 0.45},
	{name: "gcc", seed: 2003, paperIPC: 1.056, mem: tierL2, br: brMid, ilp: 0.6},
	{name: "gamess", seed: 2004, paperIPC: 1.879, fp: true, mem: tierL1, br: brEasy, conflictW: 0.22, ilp: 0.8},
	{name: "mcf", seed: 2005, paperIPC: 0.116, mem: tierChase, br: brHard, ilp: 0.3},
	{name: "milc", seed: 2006, paperIPC: 0.458, fp: true, mem: tierDRAM, br: brEasy, ilp: 0.75},
	{name: "gromacs", seed: 2007, paperIPC: 0.595, fp: true, mem: tierL2, br: brMid, conflictW: 0.20, ilp: 0.3},
	{name: "leslie3d", seed: 2008, paperIPC: 2.205, fp: true, mem: tierL1, br: brEasy, conflictW: 0.20, ilp: 0.6},
	{name: "namd", seed: 20091, paperIPC: 2.436, fp: true, mem: tierL1, br: brEasy, ilp: 0.9},
	{name: "gobmk", seed: 2010, paperIPC: 0.827, mem: tierL1, br: brHard, ilp: 0.05},
	{name: "soplex", seed: 2011, paperIPC: 0.258, fp: true, mem: tierDRAM, br: brMid, ilp: 0.25},
	{name: "povray", seed: 2012, paperIPC: 1.571, fp: true, mem: tierL1, br: brMid, ilp: 0.4},
	{name: "hmmer", seed: 2013, paperIPC: 2.362, mem: tierL1, br: brEasy, conflictW: 0.25, ilp: 1.0},
	{name: "sjeng", seed: 2014, paperIPC: 1.421, mem: tierL1, br: brMid, ilp: 0.5},
	{name: "GemsFDTD", seed: 2015, paperIPC: 2.312, fp: true, mem: tierL1, br: brEasy, conflictW: 0.22, ilp: 0.8},
	{name: "libquantum", seed: 2016, paperIPC: 0.399, mem: tierDRAM, br: brEasy, ilp: 0.8},
	{name: "h264ref", seed: 2017, paperIPC: 1.228, mem: tierL1, br: brMid, conflictW: 0.18, ilp: 0.15},
	{name: "lbm", seed: 2018, paperIPC: 0.362, fp: true, mem: tierDRAM, br: brEasy, ilp: 0.65},
	{name: "omnetpp", seed: 2019, paperIPC: 0.304, mem: tierChase, br: brHard, ilp: 0.45},
	{name: "astar", seed: 2020, paperIPC: 1.252, mem: tierL2, br: brMid, ilp: 0.8},
	{name: "sphinx3", seed: 2021, paperIPC: 0.776, fp: true, mem: tierL2, br: brMid, ilp: 0.5},
	{name: "xalancbmk", seed: 2022, paperIPC: 1.980, mem: tierEdge, br: brMid, ilp: 0.2},
}

// deriveProfile turns a calibration row into generator parameters. The
// mapping was calibrated against the paper's Table 2 IPCs on Baseline_0
// (see EXPERIMENTS.md for the resulting paper-vs-measured table).
func deriveProfile(r profileRow) Profile {
	p := Profile{
		Name:     r.name,
		Seed:     r.seed,
		PaperIPC: r.paperIPC,
		Blocks:   20,
		BlockLen: 7,

		LoadFrac:  0.27,
		StoreFrac: 0.09,

		MeanDepDist: 2 + 8*r.ilp,
		UseBaseFrac: 0.25 + 0.35*r.ilp,
		AddrDepFrac: 0.45 - 0.4*r.ilp,
		LoadUseFrac: 0.75 - 0.35*r.ilp,
	}
	if r.fp {
		p.FPFrac = 0.5
		p.MulDivFrac = 0.1
		p.Blocks = 12
		p.BlockLen = 13
	} else {
		p.MulDivFrac = 0.02
	}

	// Memory streams. conflictW (if any) carves weight out of the
	// L1-resident share.
	cw := r.conflictW
	switch r.mem {
	case tierL1:
		p.Agens = []AgenSpec{
			l1Stride(0.58 - cw/2), l1Rand(0.40 - cw/2),
			{Kind: AgenRandom, Footprint: fpL2, Weight: 0.02},
		}
	case tierL2:
		p.Agens = []AgenSpec{
			l1Rand(0.58 - cw/2), l1Stride(0.32 - cw/2),
			{Kind: AgenRandom, Footprint: fpL2, Weight: 0.09},
			{Kind: AgenRandom, Footprint: fpBig, Weight: 0.01},
		}
	case tierEdge:
		p.Agens = []AgenSpec{
			{Kind: AgenRandom, Footprint: fpEdge, Weight: 0.9 - cw},
			l1Rand(0.10),
		}
	case tierDRAM:
		p.Agens = []AgenSpec{
			bigStream(0.45 - cw/2),
			{Kind: AgenRandom, Footprint: fpBig, Weight: 0.15},
			l1Rand(0.40 - cw/2),
		}
	case tierChase:
		chaseW := 0.30 - 1.6*(r.ilp-0.2) // deeper chasing for lower-ILP rows
		if chaseW < 0.10 {
			chaseW = 0.10
		}
		p.Agens = []AgenSpec{
			bigChase(chaseW),
			{Kind: AgenRandom, Footprint: fpBig, Weight: 0.12},
			{Kind: AgenRandom, Footprint: fpL2, Weight: 0.20},
			l1Rand(0.68 - chaseW),
		}
	}
	if cw > 0 {
		p.Agens = append(p.Agens, conflictStride(cw, fpL1))
	}

	// Streaming DRAM codes walk arrays off loop-invariant bases: their
	// loads are mutually independent (high MLP), which is what lets real
	// streaming benchmarks survive DRAM latency.
	if r.mem == tierDRAM && r.br == brEasy {
		p.AddrDepFrac = 0.05
	}

	// Branch behaviour.
	switch r.br {
	case brEasy:
		p.InnerLoopFrac, p.LoopTrip = 0.6, 48
		p.SkipFrac, p.SkipBias = 0.15, 0.97
	case brMid:
		p.InnerLoopFrac, p.LoopTrip = 0.35, 16
		p.SkipFrac, p.SkipBias = 0.35, 0.93
		p.RandomBranchFrac = 0.01
	case brHard:
		p.InnerLoopFrac, p.LoopTrip = 0.25, 8
		p.SkipFrac, p.SkipBias = 0.40, 0.78
		p.RandomBranchFrac = 0.08
	}
	return p
}

// Common address-stream families. A line-granularity (64 B) stride with
// quadword-interleaved banks revisits the same bank every access
// (conflict-prone, like column-walking FP codes); stride 8 touches
// consecutive banks.
func l1Stride(w float64) AgenSpec {
	// Half the L1-resident footprint: the walk's lap (reuse distance)
	// stays short enough to survive L2-stream pollution under LRU.
	return AgenSpec{Kind: AgenStride, Footprint: fpL1 / 4, Stride: 8, Weight: w}
}
func l1Rand(w float64) AgenSpec { return AgenSpec{Kind: AgenRandom, Footprint: fpL1, Weight: w} }
func bigStream(w float64) AgenSpec {
	// Line stride: every access touches a fresh line, so the stream's
	// static loads miss essentially always — the behaviour the paper
	// describes for libquantum and the case the per-PC hit/miss filter
	// is designed to capture as "sure miss".
	return AgenSpec{Kind: AgenStride, Footprint: fpBig, Stride: 64, Weight: w}
}
func bigChase(w float64) AgenSpec { return AgenSpec{Kind: AgenChase, Footprint: fpBig, Weight: w} }

// conflictStride is the bank-conflict-prone family: a line-granularity walk
// that keeps hitting one bank while staying cache-resident.
func conflictStride(w float64, footprint int) AgenSpec {
	return AgenSpec{Kind: AgenStride, Footprint: footprint, Stride: 64, Weight: w}
}

// Profiles returns the full benchmark suite in the paper's table order.
func Profiles() []Profile {
	out := make([]Profile, 0, len(rows))
	for _, r := range rows {
		out = append(out, deriveProfile(r))
	}
	return out
}

// ProfileNames returns the suite's workload names in table order.
func ProfileNames() []string {
	names := make([]string, len(rows))
	for i := range rows {
		names[i] = rows[i].name
	}
	return names
}

// PaperIPC returns the benchmark's IPC from the paper's Table 2, or 0 for
// a name outside the suite (a recorded trace, say) — ByName's PaperIPC
// without deriving the whole profile.
func PaperIPC(name string) float64 {
	for i := range rows {
		if rows[i].name == name {
			return rows[i].paperIPC
		}
	}
	return 0
}

// ByName looks a profile up by its benchmark name.
func ByName(name string) (Profile, error) {
	for _, r := range rows {
		if r.name == name {
			return deriveProfile(r), nil
		}
	}
	known := make([]string, len(rows))
	for i := range rows {
		known[i] = rows[i].name
	}
	sort.Strings(known)
	return Profile{}, fmt.Errorf("trace: unknown workload %q (known: %v)", name, known)
}
