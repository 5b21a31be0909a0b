// Package predict implements the paper's scheduling-side predictors:
//
//   - GlobalCounter: the Alpha 21264's 4-bit saturating counter whose MSB
//     decides whether loads may speculatively wake their dependents; it is
//     decremented by two on cycles with an L1 miss and incremented by one
//     otherwise (§5.2).
//   - Filter: a 2K-entry direct-mapped array of 2-bit saturating counters,
//     each with a silence bit set when the counter leaves a saturated
//     state; silenced entries defer to the global counter, and all silence
//     bits are cleared every 10K committed loads (§5.2).
//   - Criticality: an 8K-entry direct-mapped table of 4-bit signed
//     counters trained on the "was at the ROB head when it completed"
//     criterion; the sign bit gives the prediction (§5.3).
package predict

// GlobalCounter is the Alpha-style global hit/miss counter.
type GlobalCounter struct {
	value int // [0, 15]
}

// NewGlobalCounter starts saturated high (assume hits).
func NewGlobalCounter() *GlobalCounter { return &GlobalCounter{value: 15} }

// Tick records one cycle: dec-by-2 on cycles with at least one L1 miss,
// inc-by-1 otherwise.
func (g *GlobalCounter) Tick(missThisCycle bool) {
	if missThisCycle {
		g.value -= 2
		if g.value < 0 {
			g.value = 0
		}
	} else if g.value < 15 {
		g.value++
	}
}

// SpeculateHit reports whether loads should wake their dependents
// speculatively (the counter's MSB).
func (g *GlobalCounter) SpeculateHit() bool { return g.value >= 8 }

// Value exposes the raw counter (for tests and debug output).
func (g *GlobalCounter) Value() int { return g.value }

// FilterOutcome is the per-PC filter's verdict for a load.
type FilterOutcome uint8

const (
	// FilterUnknown defers the decision to the global counter (entry
	// silenced, or still in its initial transient state).
	FilterUnknown FilterOutcome = iota
	// FilterSureHit marks loads that have always hit.
	FilterSureHit
	// FilterSureMiss marks loads that have always missed.
	FilterSureMiss
)

func (o FilterOutcome) String() string {
	switch o {
	case FilterSureHit:
		return "sure-hit"
	case FilterSureMiss:
		return "sure-miss"
	default:
		return "unknown"
	}
}

type filterEntry struct {
	ctr    uint8 // 2-bit saturating, 0..3
	silent bool
}

// Filter is the per-instruction hit/miss filter. 2K entries × (2+1) bits =
// 768 bytes of state, matching §5.2.
type Filter struct {
	entries []filterEntry
	// noSilence disables the silence bit (ablation): counters always
	// train and the MSB is used as an ordinary prediction.
	noSilence bool

	resetEvery int64
	sinceReset int64
}

// NewFilter constructs a filter with the given entry count (power of two)
// and silence-bit reset interval in committed loads. noSilence selects the
// plain-2-bit-counter ablation the paper compares against.
func NewFilter(entries int, resetEvery int64, noSilence bool) *Filter {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: filter entries must be a positive power of two")
	}
	f := &Filter{
		entries:    make([]filterEntry, entries),
		noSilence:  noSilence,
		resetEvery: resetEvery,
	}
	for i := range f.entries {
		f.entries[i].ctr = 2 // transient start: first outcomes decide
	}
	return f
}

func (f *Filter) index(pc uint64) int {
	h := (pc >> 2) * 0x9e3779b97f4a7c15
	return int(h>>40) & (len(f.entries) - 1)
}

// Predict returns the filter's verdict for the load at pc.
func (f *Filter) Predict(pc uint64) FilterOutcome {
	e := &f.entries[f.index(pc)]
	if f.noSilence {
		if e.ctr >= 2 {
			return FilterSureHit
		}
		return FilterSureMiss
	}
	if e.silent {
		return FilterUnknown
	}
	switch e.ctr {
	case 3:
		return FilterSureHit
	case 0:
		return FilterSureMiss
	default:
		return FilterUnknown
	}
}

// Update trains the filter at commit time with the load's actual L1
// outcome. Counters freeze while silenced; leaving a saturated state sets
// the silence bit (§5.2).
func (f *Filter) Update(pc uint64, hit bool) {
	e := &f.entries[f.index(pc)]
	if f.noSilence {
		if hit && e.ctr < 3 {
			e.ctr++
		} else if !hit && e.ctr > 0 {
			e.ctr--
		}
	} else if !e.silent {
		switch {
		case e.ctr == 3 && !hit, e.ctr == 0 && hit:
			// Leaving a saturated state: silence, freeze the counter.
			e.silent = true
		case hit && e.ctr < 3:
			e.ctr++
		case !hit && e.ctr > 0:
			e.ctr--
		}
	}

	f.sinceReset++
	if f.resetEvery > 0 && f.sinceReset >= f.resetEvery {
		f.sinceReset = 0
		for i := range f.entries {
			f.entries[i].silent = false
		}
	}
}

// Criticality is the ROB-head criticality predictor: a direct-mapped table
// of small signed counters, incremented when a µ-op was found critical
// (at the ROB head when it completed) during its last execution and
// decremented otherwise. The prediction is the sign bit.
type Criticality struct {
	table []int8
	lo    int8
	hi    int8
}

// NewCriticality constructs the predictor with the given entry count
// (power of two) and counter width in bits (e.g. 4 → range [-8, 7]).
func NewCriticality(entries, ctrBits int) *Criticality {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predict: criticality entries must be a positive power of two")
	}
	if ctrBits < 2 || ctrBits > 7 {
		panic("predict: criticality counter bits out of range")
	}
	return &Criticality{
		table: make([]int8, entries),
		lo:    int8(-(1 << (ctrBits - 1))),
		hi:    int8(1<<(ctrBits-1) - 1),
	}
}

func (c *Criticality) index(pc uint64) int {
	h := (pc >> 2) * 0x9e3779b97f4a7c15
	return int(h>>40) & (len(c.table) - 1)
}

// Critical predicts whether the µ-op at pc is critical. The zero-initialized
// counter predicts critical, so untrained loads keep speculating.
func (c *Criticality) Critical(pc uint64) bool {
	return c.table[c.index(pc)] >= 0
}

// Update trains the predictor at retire: wasCritical is true when the µ-op
// was at the ROB head when it completed.
func (c *Criticality) Update(pc uint64, wasCritical bool) {
	e := &c.table[c.index(pc)]
	if wasCritical {
		if *e < c.hi {
			*e++
		}
	} else if *e > c.lo {
		*e--
	}
}
