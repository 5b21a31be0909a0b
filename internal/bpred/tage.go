// Package bpred implements the front-end branch prediction stack of the
// simulated core: a TAGE conditional-direction predictor (base bimodal plus
// 12 partially tagged components with geometric history lengths, after
// Seznec & Michaud) and a set-associative branch target buffer. Table 1 of
// the paper specifies "TAGE 1+12 components, 15K-entry total (~32KB), 20
// cycles min. branch mis. penalty; 2-way 8K-entry BTB, 32-entry RAS"; no
// return address stack is modelled, because no µ-op stream carries a call
// or a return.
package bpred

import (
	"math"

	"specsched/internal/config"
)

const (
	tagBits     = 11
	ctrMax      = 3 // 3-bit signed counter range [-4, 3]
	ctrMin      = -4
	usefulMax   = 3 // 2-bit useful counter
	uResetEvery = 1 << 18
)

// foldedHistory incrementally maintains a hash of the most recent histLen
// branch outcomes folded onto targetBits bits, using the classic circular
// shift register formulation from the TAGE reference code.
type foldedHistory struct {
	value      uint32
	histLen    int
	targetBits int
	outPoint   int
}

func newFolded(histLen, targetBits int) foldedHistory {
	return foldedHistory{histLen: histLen, targetBits: targetBits,
		outPoint: histLen % targetBits}
}

// update shifts in the newest outcome bit, in, and folds out the bit that
// falls off the end of the history window, out (the bit histLen positions
// back). The caller reads both from the global history once for all of a
// component's registers, which share histLen.
func (f *foldedHistory) update(in, out uint32) {
	mask := uint32(1)<<f.targetBits - 1
	f.value = (f.value << 1) | in
	f.value ^= out << f.outPoint
	f.value ^= f.value >> f.targetBits
	f.value &= mask
}

// recompute rebuilds the folded value from the raw history buffer by feeding
// the window's bits into a zeroed register. Folding is linear over GF(2), so
// this equals the incrementally maintained value. O(histLen); only paid on
// squash recovery.
func (f *foldedHistory) recompute(ghist []byte, ptr int) {
	mask := uint32(1)<<f.targetBits - 1
	v := uint32(0)
	for p := ptr - f.histLen + 1; p <= ptr; p++ {
		v = (v << 1) | uint32(ghist[p&(len(ghist)-1)])
		v ^= v >> f.targetBits
		v &= mask
	}
	f.value = v
}

type tageEntry struct {
	tag    uint32
	ctr    int8 // signed, [-4, 3]; >= 0 predicts taken
	useful uint8
}

type tageComponent struct {
	entries []tageEntry
	histLen int
	idxBits int
	fIdx    foldedHistory // folded history for index
	fTag1   foldedHistory // folded histories for tag
	fTag2   foldedHistory
}

// TAGE is a TAgged GEometric history length branch direction predictor.
// It is not safe for concurrent use.
type TAGE struct {
	base     []int8 // bimodal base predictor, 2-bit counters in [-2, 1]
	baseBits int
	comps    []tageComponent

	ghist []byte // circular global history buffer
	gptr  int

	tick int // allocation aging counter
}

// Snapshot captures the speculative direction-history position — and the
// incrementally folded per-component hashes — so a pipeline squash can be
// restored in O(components) instead of refolding O(histLen) bits per
// component. Capturing the folded values is exact: folding is linear over
// GF(2), and the raw history bits at or before the snapshot position are
// never overwritten while the snapshot can still be restored (the ring
// holds 4x the maximum history, far more than the machine's in-flight
// branch count).
type Snapshot struct {
	gptr int
	// captured is false when the configuration has more components than
	// the fixed-size capture array; Restore then falls back to refolding.
	captured bool
	folded   [3 * snapComps]uint32
}

// snapComps bounds the number of tagged components whose folded state a
// Snapshot captures inline (the paper's configuration has 12).
const snapComps = 16

// NewTAGE builds a predictor from the configuration's TAGE geometry.
func NewTAGE(cfg *config.CoreConfig) *TAGE {
	nComps := cfg.TAGEComponents
	if nComps <= 0 {
		nComps = 12
	}
	maxHist := cfg.TAGEMaxHistory
	if maxHist <= 0 {
		maxHist = 640
	}
	const minHist = 4
	baseBits := cfg.TAGEBaseBits
	if baseBits <= 0 {
		baseBits = 13
	}
	taggedBits := cfg.TAGETaggedBits
	if taggedBits <= 0 {
		taggedBits = 10
	}

	histSize := 1
	for histSize < 4*maxHist {
		histSize <<= 1
	}
	t := &TAGE{
		base:     make([]int8, 1<<baseBits),
		baseBits: baseBits,
		ghist:    make([]byte, histSize),
	}
	ratio := 1.0
	if nComps > 1 {
		ratio = math.Pow(float64(maxHist)/minHist, 1/float64(nComps-1))
	}
	l := float64(minHist)
	prev := 0
	for i := 0; i < nComps; i++ {
		hl := int(l + 0.5)
		if hl <= prev {
			hl = prev + 1
		}
		prev = hl
		t.comps = append(t.comps, tageComponent{
			entries: make([]tageEntry, 1<<taggedBits),
			histLen: hl,
			idxBits: taggedBits,
			fIdx:    newFolded(hl, taggedBits),
			fTag1:   newFolded(hl, tagBits),
			fTag2:   newFolded(hl, tagBits-1),
		})
		l *= ratio
	}
	return t
}

// HistoryLengths returns the geometric history lengths of the tagged
// components, shortest first.
func (t *TAGE) HistoryLengths() []int {
	out := make([]int, len(t.comps))
	for i := range t.comps {
		out[i] = t.comps[i].histLen
	}
	return out
}

func (t *TAGE) baseIndex(pc uint64) int {
	return int(pc>>2) & (len(t.base) - 1)
}

func (c *tageComponent) index(pc uint64) int {
	h := uint32(pc>>2) ^ uint32(pc>>(2+uint(c.idxBits))) ^ c.fIdx.value
	return int(h) & (len(c.entries) - 1)
}

func (c *tageComponent) tag(pc uint64) uint32 {
	return (uint32(pc>>2) ^ c.fTag1.value ^ (c.fTag2.value << 1)) & ((1 << tagBits) - 1)
}

// maxComponents bounds the per-prediction index/tag arrays so Prediction
// values stay allocation-free.
const maxComponents = 16

// Prediction is the result of a TAGE lookup; the caller keeps it with the
// in-flight branch and passes it back to Update at retirement. It carries
// the prediction-time indices and tags of every component: the update and
// allocation must address the entries the lookup saw, not the entries the
// (by then advanced) history would select.
type Prediction struct {
	Taken    bool
	provider int // component index + 1; 0 = base predictor
	altPred  bool
	baseIdx  int
	weak     bool
	idx      [maxComponents]int32
	tag      [maxComponents]uint32
}

// Predict returns the predicted direction for the conditional branch at pc.
func (t *TAGE) Predict(pc uint64) Prediction {
	p := Prediction{baseIdx: t.baseIndex(pc)}
	basePred := t.base[p.baseIdx] >= 0
	p.Taken, p.altPred = basePred, basePred

	for i := range t.comps {
		c := &t.comps[i]
		p.idx[i] = int32(c.index(pc))
		p.tag[i] = c.tag(pc)
	}

	provider, alt := -1, -1
	for i := len(t.comps) - 1; i >= 0; i-- {
		if t.comps[i].entries[p.idx[i]].tag == p.tag[i] {
			if provider < 0 {
				provider = i
			} else {
				alt = i
				break
			}
		}
	}
	if provider >= 0 {
		e := &t.comps[provider].entries[p.idx[provider]]
		p.provider = provider + 1
		p.weak = e.ctr == 0 || e.ctr == -1
		if alt >= 0 {
			p.altPred = t.comps[alt].entries[p.idx[alt]].ctr >= 0
		}
		// Weak, likely newly allocated entries defer to the alternate
		// prediction (simplified USE_ALT_ON_NA policy).
		if p.weak {
			p.Taken = p.altPred
		} else {
			p.Taken = e.ctr >= 0
		}
	}
	return p
}

// Update trains the predictor with the resolved outcome of a conditional
// branch. pred must be the Prediction returned by Predict for this dynamic
// branch. Direction history is advanced separately via UpdateHistory at
// prediction time.
func (t *TAGE) Update(pc uint64, taken bool, pred Prediction) {
	correct := pred.Taken == taken

	if pred.provider > 0 {
		ci := pred.provider - 1
		e := &t.comps[ci].entries[pred.idx[ci]]
		// The entry may have been displaced since prediction; train only
		// if the tag still matches (commit-time update).
		if e.tag == pred.tag[ci] {
			e.ctr = satSigned(e.ctr, taken, ctrMin, ctrMax)
			providerPred := e.ctr >= 0
			if providerPred == taken && pred.altPred != taken {
				if e.useful < usefulMax {
					e.useful++
				}
			} else if providerPred != taken && pred.altPred == taken {
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		t.base[pred.baseIdx] = satSigned(t.base[pred.baseIdx], taken, -2, 1)
	}
	// Keep the fallback trained while the provider is still weak.
	if pred.provider > 0 && pred.weak {
		t.base[pred.baseIdx] = satSigned(t.base[pred.baseIdx], taken, -2, 1)
	}

	if !correct && pred.provider < len(t.comps) {
		t.allocate(&pred, taken, pred.provider)
	}

	t.tick++
	if t.tick >= uResetEvery {
		t.tick = 0
		t.age()
	}
}

// allocate installs a new entry in a component with a longer history than
// the provider, preferring entries whose useful counter is zero. If none is
// available the useful counters along the way are decayed instead, so a
// steady stream of mispredictions eventually frees space.
func (t *TAGE) allocate(pred *Prediction, taken bool, fromComp int) {
	for i := fromComp; i < len(t.comps); i++ {
		e := &t.comps[i].entries[pred.idx[i]]
		if e.useful == 0 {
			e.tag = pred.tag[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	for i := fromComp; i < len(t.comps); i++ {
		if e := &t.comps[i].entries[pred.idx[i]]; e.useful > 0 {
			e.useful--
		}
	}
}

func (t *TAGE) age() {
	for i := range t.comps {
		for j := range t.comps[i].entries {
			t.comps[i].entries[j].useful >>= 1
		}
	}
}

// UpdateHistory appends the (possibly speculative) outcome of a conditional
// branch to the global direction history at prediction time.
func (t *TAGE) UpdateHistory(taken bool) {
	t.gptr++
	bit := byte(0)
	if taken {
		bit = 1
	}
	mask := len(t.ghist) - 1
	t.ghist[t.gptr&mask] = bit
	in := uint32(bit)
	for i := range t.comps {
		c := &t.comps[i]
		out := uint32(t.ghist[(t.gptr-c.histLen)&mask])
		c.fIdx.update(in, out)
		c.fTag1.update(in, out)
		c.fTag2.update(in, out)
	}
}

// Snapshot captures the current speculative history position and folded
// hashes.
func (t *TAGE) Snapshot() Snapshot {
	var s Snapshot
	t.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot without the value copy — the caller owns (and
// typically pools) the destination.
func (t *TAGE) SnapshotInto(s *Snapshot) {
	s.gptr = t.gptr
	s.captured = len(t.comps) <= snapComps
	if !s.captured {
		return
	}
	for i := range t.comps {
		c := &t.comps[i]
		s.folded[3*i] = c.fIdx.value
		s.folded[3*i+1] = c.fTag1.value
		s.folded[3*i+2] = c.fTag2.value
	}
}

// Restore rewinds the direction history to a snapshot taken before a
// squashed region: folded histories are restored from the captured values,
// or recomputed from the raw buffer for oversized configurations.
func (t *TAGE) Restore(s Snapshot) { t.RestoreFrom(&s) }

// RestoreFrom is Restore without the argument copy.
func (t *TAGE) RestoreFrom(s *Snapshot) {
	t.gptr = s.gptr
	if s.captured {
		for i := range t.comps {
			c := &t.comps[i]
			c.fIdx.value = s.folded[3*i]
			c.fTag1.value = s.folded[3*i+1]
			c.fTag2.value = s.folded[3*i+2]
		}
		return
	}
	for i := range t.comps {
		c := &t.comps[i]
		c.fIdx.recompute(t.ghist, t.gptr)
		c.fTag1.recompute(t.ghist, t.gptr)
		c.fTag2.recompute(t.ghist, t.gptr)
	}
}

func satSigned(v int8, up bool, lo, hi int8) int8 {
	if up {
		if v < hi {
			return v + 1
		}
		return v
	}
	if v > lo {
		return v - 1
	}
	return v
}
