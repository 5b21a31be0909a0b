package memdep

import "testing"

const (
	loadPC  = uint64(0x1000)
	storePC = uint64(0x2000)
)

func TestNoPredictionBeforeTraining(t *testing.T) {
	s := New(1024, 1024)
	if _, ok := s.RenameLoad(loadPC); ok {
		t.Fatal("untrained predictor predicted a dependence for a load")
	}
	if _, ok := s.RenameStore(storePC, 1); ok {
		t.Fatal("untrained predictor predicted a dependence for a store")
	}
}

func TestViolationCreatesDependence(t *testing.T) {
	s := New(1024, 1024)
	s.Violation(loadPC, storePC)

	// The store renames first, then the load must be ordered after it.
	if _, ok := s.RenameStore(storePC, 42); ok {
		t.Fatal("first store of a set should have no predecessor")
	}
	dep, ok := s.RenameLoad(loadPC)
	if !ok || dep != 42 {
		t.Fatalf("RenameLoad = (%d, %t), want (42, true)", dep, ok)
	}
}

func TestStoreExecutedReleases(t *testing.T) {
	s := New(1024, 1024)
	s.Violation(loadPC, storePC)
	s.RenameStore(storePC, 42)
	s.StoreExecuted(storePC, 42)
	if _, ok := s.RenameLoad(loadPC); ok {
		t.Fatal("dependence survived store execution")
	}
}

func TestStoreExecutedIgnoresStaleSeq(t *testing.T) {
	s := New(1024, 1024)
	s.Violation(loadPC, storePC)
	s.RenameStore(storePC, 42)
	s.RenameStore(storePC, 43) // newer instance of the same static store
	s.StoreExecuted(storePC, 42)
	dep, ok := s.RenameLoad(loadPC)
	if !ok || dep != 43 {
		t.Fatalf("RenameLoad = (%d, %t), want (43, true)", dep, ok)
	}
}

func TestStoreStoreOrderingWithinSet(t *testing.T) {
	s := New(1024, 1024)
	otherStore := uint64(0x3000)
	s.Violation(loadPC, storePC)
	s.Violation(loadPC, otherStore) // both stores now share the load's set

	if _, ok := s.RenameStore(storePC, 10); ok {
		t.Fatal("first store should have no predecessor")
	}
	dep, ok := s.RenameStore(otherStore, 11)
	if !ok || dep != 10 {
		t.Fatalf("second store of set: dep = (%d, %t), want (10, true)", dep, ok)
	}
}

func TestMergeRules(t *testing.T) {
	s := New(1024, 1024)
	// Create two distinct sets.
	s.Violation(0x1000, 0x2000) // set A: load 0x1000, store 0x2000
	s.Violation(0x1100, 0x2100) // set B: load 0x1100, store 0x2100
	if s.ssidOf(0x1000) == s.ssidOf(0x1100) {
		t.Fatal("independent violations mapped to the same set")
	}
	// Violation between load of A and store of B: store joins load's set.
	s.Violation(0x1000, 0x2100)
	if s.ssidOf(0x2100) != s.ssidOf(0x1000) {
		t.Fatal("merge did not move store into load's set")
	}
}

func TestSquashAfterClearsYoungStores(t *testing.T) {
	s := New(1024, 1024)
	s.Violation(loadPC, storePC)
	s.RenameStore(storePC, 100)
	s.SquashAfter(50) // store 100 was squashed
	if _, ok := s.RenameLoad(loadPC); ok {
		t.Fatal("squashed store still dams loads")
	}
	// Older stores survive a squash.
	s.RenameStore(storePC, 30)
	s.SquashAfter(50)
	if _, ok := s.RenameLoad(loadPC); !ok {
		t.Fatal("pre-squash store dependence lost")
	}
}

func TestCyclicClearing(t *testing.T) {
	s := New(64, 64)
	s.clearEvery = 4
	for i := 0; i < 4; i++ {
		s.Violation(uint64(0x1000+i*4), uint64(0x2000+i*4))
	}
	// After clearEvery assignments the tables reset.
	if _, ok := s.RenameLoad(0x1000); ok {
		t.Fatal("tables not cleared after clearEvery violations")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 64) },
		func() { New(64, 0) },
		func() { New(100, 64) },
		func() { New(64, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestManySetsLowCrosstalk(t *testing.T) {
	s := New(1024, 1024)
	// 100 disjoint load/store pairs. A 1K-entry SSIT necessarily aliases
	// some of the 200 distinct PCs (birthday bound), so we require 90 %
	// of the pairs to stay isolated rather than all of them.
	for i := 0; i < 100; i++ {
		s.Violation(uint64(0x10000+i*4), uint64(0x20000+i*4))
	}
	for i := 0; i < 100; i++ {
		s.RenameStore(uint64(0x20000+i*4), int64(1000+i))
	}
	good := 0
	for i := 0; i < 100; i++ {
		if dep, ok := s.RenameLoad(uint64(0x10000 + i*4)); ok && dep == int64(1000+i) {
			good++
		}
	}
	if good < 90 {
		t.Fatalf("only %d/100 pairs isolated; excessive SSIT crosstalk", good)
	}
}
