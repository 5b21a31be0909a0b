package trace

import (
	"specsched/internal/rng"
	"specsched/internal/uop"
)

// WrongPath synthesizes the µ-ops fetched after a mispredicted branch until
// it resolves. The paper's wrong-path instructions come from real misfetched
// code; here they are statistically plausible filler — a mix of ALU µ-ops
// and loads over a bounded region — whose only roles are to occupy issue
// slots, pollute the cache, and inflate the "Unique" issued-µ-op category
// the way real wrong-path work does (§4.2).
type WrongPath struct {
	r    *rng.RNG
	mask uint64
	base uint64
	pcs  uint64
}

// NewWrongPath constructs a wrong-path generator with its own seed;
// footprint bounds the addresses its loads touch.
func NewWrongPath(seed uint64, footprint int) *WrongPath {
	fp := uint64(64)
	for fp < uint64(footprint) {
		fp <<= 1
	}
	return &WrongPath{
		r:    rng.New(seed ^ 0x77726f6e67), // "wrong"
		mask: fp - 1,
		base: 0x7f0000000, // disjoint from correct-path data
	}
}

// NextInto emits one wrong-path µ-op directly into dst. Every field is stored explicitly — a composite-literal assignment through
// the pointer would build a stack temporary and block copy it.
func (w *WrongPath) NextInto(dst *uop.UOp) bool {
	w.pcs++
	dst.Seq = -1
	dst.PC = 0x700000 + (w.pcs&1023)*4
	dst.Class = uop.ClassNop
	dst.Src1 = w.r.Intn(numIntBases)
	dst.Src2 = uop.RegNone
	dst.Dest = uop.RegNone
	dst.Addr = 0
	dst.Size = 8
	dst.Taken = false
	dst.Target = 0
	dst.WrongPath = true
	if w.r.Bool(0.25) {
		dst.Class = uop.ClassLoad
		dst.Addr = w.base + (w.r.Uint64() & w.mask &^ 7)
		dst.Dest = firstIntDest + w.r.Intn(uop.NumIntRegs-firstIntDest)
	} else {
		dst.Class = uop.ClassALU
		dst.Dest = firstIntDest + w.r.Intn(uop.NumIntRegs-firstIntDest)
	}
	return true
}
