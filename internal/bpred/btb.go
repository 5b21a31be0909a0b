package bpred

// BTB is a set-associative branch target buffer with LRU replacement.
// Table 1: 2-way, 8K entries.
//
// Recency is an 8-bit clock that, when it wraps, halves every entry's
// recency and restarts at 128. The halving is applied lazily: each entry
// keeps the clock value it was touched at (stamp) and the wrap count at
// that time (era, modulo 256), and its recency is stamp halved once per
// wrap since. Every normEvery wraps, entries halved to zero are re-based
// to the current era, so no entry is ever 256 or more wraps behind and
// the modular era difference stays exact however long the run.
type BTB struct {
	sets  int
	ways  int
	tags  []uint64 // sets*ways; 0 means invalid (PC 0 is never a branch)
	tgts  []uint64
	stamp []uint8 // per-entry clock value at its last touch
	era   []uint8 // per-entry wraps (mod 256) at its last touch
	clock uint8
	wraps uint8
}

// normEvery is the number of clock wraps between re-basing passes. It
// must leave room for the 8 wraps that halve any stamp to zero:
// normEvery + 8 <= 256.
const normEvery = 128

// NewBTB constructs a BTB with the given total entry count and
// associativity. entries must be a positive multiple of ways with a
// power-of-two set count.
func NewBTB(entries, ways int) *BTB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("bpred: invalid BTB geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("bpred: BTB set count must be a power of two")
	}
	return &BTB{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, entries),
		tgts:  make([]uint64, entries),
		stamp: make([]uint8, entries),
		era:   make([]uint8, entries),
	}
}

func (b *BTB) setOf(pc uint64) int { return int(pc>>2) & (b.sets - 1) }

// Lookup returns the predicted target for the branch at pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	base := b.setOf(pc) * b.ways
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc {
			b.touch(base + w)
			return b.tgts[base+w], true
		}
	}
	return 0, false
}

// Insert records (or refreshes) the target of the branch at pc, evicting the
// least recently used way of the set if needed.
func (b *BTB) Insert(pc, target uint64) {
	base := b.setOf(pc) * b.ways
	victim := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.tags[i] == pc || b.tags[i] == 0 {
			victim = i
			break
		}
		if b.recency(i) < b.recency(victim) {
			victim = i
		}
	}
	b.tags[victim] = pc
	b.tgts[victim] = target
	b.touch(victim)
}

// recency is entry i's LRU rank (higher = more recent): its stamp halved
// once per clock wrap since it was touched. A shift of 8 or more is zero.
func (b *BTB) recency(i int) uint8 {
	return b.stamp[i] >> (b.wraps - b.era[i])
}

func (b *BTB) touch(i int) {
	b.clock++
	if b.clock == 0 { // wrapped: every recency halves
		b.clock = 128
		b.wraps++
		if b.wraps%normEvery == 0 {
			b.rebase()
		}
	}
	b.stamp[i] = b.clock
	b.era[i] = b.wraps
}

// rebase moves every entry whose recency has halved to zero into the
// current era with a zero stamp, which keeps its recency at zero. Every
// other entry is fewer than 8 wraps behind, so until the next pass no
// entry falls more than 7 + normEvery wraps behind: fewer than the 256 the
// modular era difference can tell apart.
func (b *BTB) rebase() {
	for j, e := range b.era {
		if b.wraps-e >= 8 {
			b.stamp[j] = 0
			b.era[j] = b.wraps
		}
	}
}
