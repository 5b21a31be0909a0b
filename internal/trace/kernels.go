package trace

import (
	"specsched/internal/rng"
	"specsched/internal/uop"
)

// The kernels below are exact-semantics miniature programs (as opposed to
// the statistical Profile generator): their dynamic instruction sequences
// are what a compiler would emit for the loop in question. They back the
// runnable examples and give the simulator's behaviours concrete,
// explainable stimuli.

// PointerChase emits the load-use chain of traversing a randomly permuted
// linked list of n nodes (64 B apart, one node per cache line). Every load
// depends on the previous one, so the chain exposes raw load-to-use and
// memory latency — the mcf-style worst case for speculative scheduling.
type PointerChase struct {
	perm  []uint32
	cur   uint32
	base  uint64
	seq   int64
	phase int
}

// NewPointerChase builds a chase over n nodes from a random cycle.
func NewPointerChase(seed uint64, n int) *PointerChase {
	if n < 2 {
		n = 2
	}
	r := rng.New(seed)
	perm := make([]uint32, n)
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	// Sattolo's algorithm: a single cycle through all nodes.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i < n; i++ {
		perm[order[i]] = order[(i+1)%n]
	}
	return &PointerChase{perm: perm, base: 0x10000000}
}

// NextInto implements uop.Stream. Loop body: load next pointer; compare; branch
// back (always taken — the traversal is endless).
func (p *PointerChase) NextInto(dst *uop.UOp) bool {
	p.seq++
	const (
		ptrReg = firstIntDest // holds the current node pointer
		tmpReg = firstIntDest + 1
	)
	switch p.phase {
	case 0: // load ptr = node->next
		addr := p.base + uint64(p.cur)*64
		p.cur = p.perm[p.cur]
		p.phase = 1
		*dst = uop.UOp{
			Seq: p.seq, PC: 0x401000, Class: uop.ClassLoad,
			Src1: ptrReg, Src2: uop.RegNone, Dest: ptrReg,
			Addr: addr, Size: 8,
		}
		return true
	case 1: // test the pointer
		p.phase = 2
		*dst = uop.UOp{
			Seq: p.seq, PC: 0x401004, Class: uop.ClassALU,
			Src1: ptrReg, Src2: uop.RegNone, Dest: tmpReg,
		}
		return true
	default: // loop back
		p.phase = 0
		*dst = uop.UOp{
			Seq: p.seq, PC: 0x401008, Class: uop.ClassBranch,
			Src1: tmpReg, Src2: uop.RegNone, Dest: uop.RegNone,
			Taken: true, Target: 0x401000,
		}
		return true
	}
}

// StreamSum emits the classic reduction `for i { sum += a[i] }` over an
// array of elems 8-byte elements: a strided load stream feeding an
// accumulator chain, with a perfectly predictable loop branch every 8
// elements. Loads are independent of each other, so speculative scheduling
// shines; the footprint decides which cache level feeds the loop.
type StreamSum struct {
	elems  uint64
	i      uint64
	seq    int64
	phase  int
	unroll int
}

// NewStreamSum builds a streaming reduction over footprint bytes.
func NewStreamSum(footprint int) *StreamSum {
	e := uint64(footprint / 8)
	if e < 16 {
		e = 16
	}
	return &StreamSum{elems: e}
}

// NextInto implements uop.Stream. The loop is unrolled by 4: four loads, four
// adds into the accumulator, one counter add, one branch.
func (s *StreamSum) NextInto(dst *uop.UOp) bool {
	s.seq++
	const (
		accReg  = firstIntDest
		idxReg  = firstIntDest + 1
		valBase = firstIntDest + 2
	)
	base := uint64(0x20000000)
	switch {
	case s.phase < 4: // loads
		k := s.phase
		s.phase++
		addr := base + ((s.i+uint64(k))%s.elems)*8
		*dst = uop.UOp{
			Seq: s.seq, PC: 0x402000 + uint64(k)*4, Class: uop.ClassLoad,
			Src1: idxReg, Src2: uop.RegNone, Dest: valBase + k,
			Addr: addr, Size: 8,
		}
		return true
	case s.phase < 8: // adds into the accumulator
		k := s.phase - 4
		s.phase++
		*dst = uop.UOp{
			Seq: s.seq, PC: 0x402010 + uint64(k)*4, Class: uop.ClassALU,
			Src1: accReg, Src2: valBase + k, Dest: accReg,
		}
		return true
	case s.phase == 8: // index increment
		s.phase++
		*dst = uop.UOp{
			Seq: s.seq, PC: 0x402020, Class: uop.ClassALU,
			Src1: idxReg, Src2: uop.RegNone, Dest: idxReg,
		}
		return true
	default: // loop branch (taken except at wrap)
		s.phase = 0
		s.i += 4
		taken := s.i%s.elems != 0
		*dst = uop.UOp{
			Seq: s.seq, PC: 0x402024, Class: uop.ClassBranch,
			Src1: idxReg, Src2: uop.RegNone, Dest: uop.RegNone,
			Taken: taken, Target: 0x402000,
		}
		return true
	}
}

// Stencil emits `c[i] = a[i] + b[i]` over three arrays whose bases are laid
// out so the a[i] and b[i] loads of each iteration map to the *same* L1
// bank in different sets — the bank-conflict-prone pattern Schedule
// Shifting targets (§5.1). Arrays advance by a full line each iteration.
type Stencil struct {
	lines uint64
	i     uint64
	seq   int64
	phase int
}

// NewStencil builds a conflict-prone stencil over footprint bytes per array.
func NewStencil(footprint int) *Stencil {
	l := uint64(footprint / 64)
	if l < 16 {
		l = 16
	}
	return &Stencil{lines: l}
}

// NextInto implements uop.Stream. Loop body: load a[i]; load b[i] (same bank,
// different set); FP add; store c[i]; branch.
func (s *Stencil) NextInto(dst *uop.UOp) bool {
	s.seq++
	const (
		aReg = firstIntDest
		bReg = firstIntDest + 1
		cReg = firstFPDest
	)
	// Bases 0x1000 apart: identical low 12 bits walk identical banks and
	// identical quadword offsets, but different L1 sets per array index.
	baseA := uint64(0x30000000)
	baseB := uint64(0x30000000 + 0x1040)
	baseC := uint64(0x38000000)
	off := (s.i % s.lines) * 64
	switch s.phase {
	case 0:
		s.phase = 1
		*dst = uop.UOp{Seq: s.seq, PC: 0x403000, Class: uop.ClassLoad,
			Src1: 0, Src2: uop.RegNone, Dest: aReg, Addr: baseA + off, Size: 8}
		return true
	case 1:
		s.phase = 2
		*dst = uop.UOp{Seq: s.seq, PC: 0x403004, Class: uop.ClassLoad,
			Src1: 1, Src2: uop.RegNone, Dest: bReg, Addr: baseB + off, Size: 8}
		return true
	case 2:
		s.phase = 3
		*dst = uop.UOp{Seq: s.seq, PC: 0x403008, Class: uop.ClassFP,
			Src1: aReg, Src2: bReg, Dest: cReg}
		return true
	case 3:
		s.phase = 4
		*dst = uop.UOp{Seq: s.seq, PC: 0x40300c, Class: uop.ClassStore,
			Src1: cReg, Src2: 2, Dest: uop.RegNone, Addr: baseC + off, Size: 8}
		return true
	default:
		s.phase = 0
		s.i++
		taken := s.i%s.lines != 0
		*dst = uop.UOp{Seq: s.seq, PC: 0x403010, Class: uop.ClassBranch,
			Src1: aReg, Src2: uop.RegNone, Dest: uop.RegNone,
			Taken: taken, Target: 0x403000}
		return true
	}
}
