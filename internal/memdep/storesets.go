// Package memdep implements the Store Sets memory dependence predictor of
// Chrysos & Emer, configured as in Table 1 of the paper: a 1K-entry Store
// Set ID Table (SSIT) and a 1K-entry Last Fetched Store Table (LFST).
//
// The predictor learns, from memory-order violations, which loads must wait
// for which stores. At rename, each memory µ-op consults the SSIT with its
// PC; if it belongs to a store set, the LFST yields the sequence number of
// the most recently renamed store of that set, which the µ-op must order
// after. Memory µ-ops with no predicted dependence issue out of order.
package memdep

const invalidSeq = int64(-1)

// StoreSets is the predictor. It is not safe for concurrent use.
type StoreSets struct {
	ssit []int32 // PC-indexed; -1 = no store set
	lfst []int64 // SSID-indexed; sequence number of last fetched store, or -1

	nextSSID int32
	// accesses counts SSIT assignments for cyclic clearing.
	accesses   int64
	clearEvery int64
}

// New constructs a Store Sets predictor with ssitEntries and lfstEntries
// (both must be positive powers of two).
func New(ssitEntries, lfstEntries int) *StoreSets {
	if ssitEntries <= 0 || ssitEntries&(ssitEntries-1) != 0 ||
		lfstEntries <= 0 || lfstEntries&(lfstEntries-1) != 0 {
		panic("memdep: table sizes must be positive powers of two")
	}
	s := &StoreSets{
		ssit:       make([]int32, ssitEntries),
		lfst:       make([]int64, lfstEntries),
		clearEvery: 1 << 20,
	}
	s.reset()
	return s
}

func (s *StoreSets) reset() {
	for i := range s.ssit {
		s.ssit[i] = -1
	}
	for i := range s.lfst {
		s.lfst[i] = invalidSeq
	}
	s.nextSSID = 0
}

func (s *StoreSets) index(pc uint64) int {
	// Fibonacci hash: disperses the structured PC strides of real code so
	// destructive SSIT aliasing stays at the birthday-bound level.
	h := (pc >> 2) * 0x9e3779b97f4a7c15
	return int(h>>40) & (len(s.ssit) - 1)
}

func (s *StoreSets) ssidOf(pc uint64) int32 { return s.ssit[s.index(pc)] }

// RenameStore is called when a store µ-op is renamed. It returns the
// sequence number of the store this one must order after (or ok=false), and
// records the store as the last fetched store of its set.
func (s *StoreSets) RenameStore(pc uint64, seq int64) (dependsOn int64, ok bool) {
	ssid := s.ssidOf(pc)
	if ssid < 0 {
		return 0, false
	}
	slot := int(ssid) & (len(s.lfst) - 1)
	prev := s.lfst[slot]
	s.lfst[slot] = seq
	if prev == invalidSeq {
		return 0, false
	}
	return prev, true
}

// RenameLoad is called when a load µ-op is renamed. It returns the sequence
// number of the store the load must order after (or ok=false).
func (s *StoreSets) RenameLoad(pc uint64) (dependsOn int64, ok bool) {
	ssid := s.ssidOf(pc)
	if ssid < 0 {
		return 0, false
	}
	slot := int(ssid) & (len(s.lfst) - 1)
	if prev := s.lfst[slot]; prev != invalidSeq {
		return prev, true
	}
	return 0, false
}

// StoreExecuted removes the store from the LFST once its address is known
// and it has executed, releasing waiting µ-ops.
func (s *StoreSets) StoreExecuted(pc uint64, seq int64) {
	ssid := s.ssidOf(pc)
	if ssid < 0 {
		return
	}
	slot := int(ssid) & (len(s.lfst) - 1)
	if s.lfst[slot] == seq {
		s.lfst[slot] = invalidSeq
	}
}

// SquashAfter clears LFST entries that point at squashed (younger than seq)
// stores, so stale dependences do not dam the pipeline after a misprediction
// recovery.
func (s *StoreSets) SquashAfter(seq int64) {
	for i, v := range s.lfst {
		if v != invalidSeq && v > seq {
			s.lfst[i] = invalidSeq
		}
	}
}

// Violation trains the predictor after a memory-order violation between a
// load and an older store, using the classic store-set assignment rules:
//   - neither has a set: allocate a new one for both;
//   - one has a set: the other joins it;
//   - both have sets: the load's set wins and the store joins it (a simple,
//     deterministic merge rule).
func (s *StoreSets) Violation(loadPC, storePC uint64) {
	li, si := s.index(loadPC), s.index(storePC)
	lset, sset := s.ssit[li], s.ssit[si]
	switch {
	case lset < 0 && sset < 0:
		id := s.allocSSID()
		s.ssit[li], s.ssit[si] = id, id
	case lset < 0:
		s.ssit[li] = sset
	case sset < 0:
		s.ssit[si] = lset
	default:
		if lset != sset {
			s.ssit[si] = lset
		}
	}
	s.accesses++
	if s.accesses >= s.clearEvery {
		s.accesses = 0
		s.reset()
	}
}

func (s *StoreSets) allocSSID() int32 {
	id := s.nextSSID
	s.nextSSID = (s.nextSSID + 1) & int32(len(s.lfst)-1)
	return id
}
