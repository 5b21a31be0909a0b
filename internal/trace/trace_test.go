package trace

import (
	"testing"

	"specsched/internal/uop"
)

func collect(s uop.Stream, n int) []uop.UOp {
	out := make([]uop.UOp, 0, n)
	var u uop.UOp
	for i := 0; i < n; i++ {
		if !s.NextInto(&u) {
			break
		}
		out = append(out, u)
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a := collect(New(p), 5000)
	b := collect(New(p), 5000)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at µ-op %d: %v vs %v", i, a[i].String(), b[i].String())
		}
	}
}

func TestGeneratorSeqMonotone(t *testing.T) {
	g := New(Profiles()[0])
	var prev int64
	var u uop.UOp
	for i := 0; i < 10000; i++ {
		g.NextInto(&u)
		if u.Seq <= prev {
			t.Fatalf("sequence not monotone at %d: %d after %d", i, u.Seq, prev)
		}
		prev = u.Seq
	}
}

func TestAllProfilesValidAndRunnable(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			g := New(p)
			us := collect(g, 20000)
			if len(us) != 20000 {
				t.Fatalf("stream ended early: %d", len(us))
			}
			var loads, stores, branches, fp float64
			for i := range us {
				switch us[i].Class {
				case uop.ClassLoad:
					loads++
				case uop.ClassStore:
					stores++
				case uop.ClassBranch:
					branches++
				case uop.ClassFP, uop.ClassFPMul, uop.ClassFPDiv:
					fp++
				}
			}
			n := float64(len(us))
			// Branches: one per block; the effective non-branch slot
			// fraction plus jitter allows a loose band.
			if branches/n < 0.03 || branches/n > 0.35 {
				t.Errorf("branch fraction %.3f out of band", branches/n)
			}
			// The dynamic load fraction tracks the static one only
			// loosely (hot inner loops skew it), so allow [0.4x, 2x].
			wantLoads := p.LoadFrac * (1 - branches/n)
			if loads/n < 0.4*wantLoads || loads/n > 2*wantLoads {
				t.Errorf("load fraction %.3f, configured %.3f", loads/n, wantLoads)
			}
			if p.FPFrac == 0 && fp > 0 {
				t.Errorf("INT profile emitted %v FP µ-ops", fp)
			}
		})
	}
}

func TestProfileNamesMatchPaperSuite(t *testing.T) {
	names := ProfileNames()
	if len(names) != 36 {
		t.Fatalf("suite has %d workloads, want 36 (Table 2)", len(names))
	}
	for _, want := range []string{"swim", "mcf", "libquantum", "xalancbmk", "crafty", "GemsFDTD"} {
		if _, err := ByName(want); err != nil {
			t.Errorf("missing paper benchmark %q", want)
		}
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark lookup should fail")
	}
}

func TestBranchTargetsAreBlockStarts(t *testing.T) {
	g := New(Profiles()[2]) // swim
	valid := map[uint64]bool{}
	for i := range g.program {
		valid[g.program[i].pc] = true
	}
	var u uop.UOp
	for i := 0; i < 20000; i++ {
		g.NextInto(&u)
		if u.Class == uop.ClassBranch && !valid[u.Target] {
			t.Fatalf("branch target %#x is not a block start", u.Target)
		}
	}
}

func TestControlFlowConsistency(t *testing.T) {
	// After a taken branch, the next µ-op's PC must equal the target;
	// after a not-taken branch it must be the fall-through block.
	g := New(Profiles()[5]) // vpr
	var lastBranch *uop.UOp
	var u uop.UOp
	for i := 0; i < 30000; i++ {
		g.NextInto(&u)
		if lastBranch != nil {
			if u.PC != lastBranch.Target {
				t.Fatalf("after branch (taken=%t) expected PC %#x, got %#x",
					lastBranch.Taken, lastBranch.Target, u.PC)
			}
			lastBranch = nil
		}
		if u.Class == uop.ClassBranch {
			c := u
			lastBranch = &c
		}
	}
}

func TestChaseLoadsSerialized(t *testing.T) {
	p := Profile{
		Name: "chase-only", Seed: 9, Blocks: 2, BlockLen: 2,
		LoadFrac: 0.85, MeanDepDist: 2, UseBaseFrac: 0,
		Agens: []AgenSpec{bigChase(1)},
	}
	g := New(p)
	// Every chase load's Src1 must equal the previous load's Dest for the
	// same static slot.
	lastDest := map[uint64]int{}
	checked := 0
	var u uop.UOp
	for i := 0; i < 5000; i++ {
		g.NextInto(&u)
		if u.Class != uop.ClassLoad {
			continue
		}
		if prev, ok := lastDest[u.PC]; ok {
			if u.Src1 != prev {
				t.Fatalf("chase load at %#x reads r%d, previous dest was r%d", u.PC, u.Src1, prev)
			}
			checked++
		}
		lastDest[u.PC] = u.Dest
	}
	if checked == 0 {
		t.Fatal("no chase pairs checked")
	}
}

func TestStrideAgenWraps(t *testing.T) {
	r := newAgenForTest(AgenSpec{Kind: AgenStride, Footprint: 1024, Stride: 64})
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.next()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("stride-64 walk over 1KB touched %d addresses, want 16", len(seen))
	}
}

func TestRandomAgenStaysInFootprint(t *testing.T) {
	a := newAgenForTest(AgenSpec{Kind: AgenRandom, Footprint: 4096})
	for i := 0; i < 1000; i++ {
		addr := a.next()
		if addr-a.base > 4095 {
			t.Fatalf("address %#x outside footprint", addr)
		}
		if addr%8 != 0 {
			t.Fatalf("address %#x not 8-byte aligned", addr)
		}
	}
}

func TestPointerChaseKernel(t *testing.T) {
	k := NewPointerChase(3, 64)
	us := collect(k, 64*3)
	loads := 0
	var addrs []uint64
	for i := range us {
		if us[i].Class == uop.ClassLoad {
			loads++
			addrs = append(addrs, us[i].Addr)
			// Serialization: load reads the register it writes.
			if us[i].Src1 != us[i].Dest {
				t.Fatal("chase load must read its own previous destination")
			}
		}
	}
	if loads != 64 {
		t.Fatalf("loads = %d, want 64 (one per iteration)", loads)
	}
	// Sattolo cycle: all 64 node addresses distinct.
	seen := map[uint64]bool{}
	for _, a := range addrs {
		seen[a] = true
	}
	if len(seen) != 64 {
		t.Fatalf("chase visited %d distinct nodes, want 64", len(seen))
	}
}

func TestStreamSumKernel(t *testing.T) {
	k := NewStreamSum(4096)
	us := collect(k, 1000)
	// Unrolled by 4: 4 loads, 5 ALU, 1 branch per 10 µ-ops.
	loads, alus, brs := 0, 0, 0
	for i := range us {
		switch us[i].Class {
		case uop.ClassLoad:
			loads++
		case uop.ClassALU:
			alus++
		case uop.ClassBranch:
			brs++
		}
	}
	if loads != 400 || alus != 500 || brs != 100 {
		t.Fatalf("mix = %d loads / %d alus / %d branches, want 400/500/100", loads, alus, brs)
	}
	// Addresses stride by 8 within the footprint.
	var prev uint64
	for i := range us {
		if us[i].Class == uop.ClassLoad {
			if prev != 0 && us[i].Addr != prev+8 && us[i].Addr >= prev {
				t.Fatalf("stream not sequential: %#x after %#x", us[i].Addr, prev)
			}
			prev = us[i].Addr
		}
	}
}

func TestStencilKernelBankPattern(t *testing.T) {
	k := NewStencil(64 << 10)
	us := collect(k, 500)
	// The two loads of each iteration must map to the same bank
	// (bits 3..5 of the address equal) but different sets.
	var pair []uint64
	checked := 0
	for i := range us {
		if us[i].Class == uop.ClassLoad {
			pair = append(pair, us[i].Addr)
			if len(pair) == 2 {
				b0 := (pair[0] >> 3) & 7
				b1 := (pair[1] >> 3) & 7
				if b0 != b1 {
					t.Fatalf("stencil loads hit banks %d and %d, want equal", b0, b1)
				}
				s0 := (pair[0] >> 6) & 63
				s1 := (pair[1] >> 6) & 63
				if s0 == s1 {
					t.Fatalf("stencil loads share set %d; conflict would be hidden by the SLB", s0)
				}
				pair = pair[:0]
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d load pairs checked", checked)
	}
}

func TestWrongPathGenerator(t *testing.T) {
	w := NewWrongPath(5, 1<<20)
	loads := 0
	var u uop.UOp
	for i := 0; i < 1000; i++ {
		w.NextInto(&u)
		if !u.WrongPath || u.Seq != -1 {
			t.Fatal("wrong-path µ-op not marked")
		}
		if u.Class == uop.ClassLoad {
			loads++
			if u.Addr < 0x7f0000000 {
				t.Fatalf("wrong-path load address %#x overlaps correct-path data", u.Addr)
			}
		}
	}
	if loads < 150 || loads > 350 {
		t.Fatalf("wrong-path load fraction %d/1000 outside [150,350]", loads)
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid profile did not panic")
		}
	}()
	New(Profile{Name: "bad", Blocks: 1, BlockLen: 4})
}

// newAgenForTest builds a standalone address generator.
func newAgenForTest(spec AgenSpec) *agen {
	g := New(Profile{
		Name: "agen-host", Seed: 1, Blocks: 2, BlockLen: 1,
		Agens: []AgenSpec{spec},
	})
	return newAgen(spec, 0, g.r)
}
