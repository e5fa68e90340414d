package sched

import (
	"math/rand"
	"testing"

	"warpedgates/internal/isa"
)

// candidate is one ready warp and the class of its next instruction.
type candidate struct {
	warp  int
	class isa.Class
}

func cand(warp int, c isa.Class) candidate { return candidate{warp: warp, class: c} }

// masks builds the ready mask and per-class warp bitmasks of cands.
func masks(cands []candidate) (ready uint64, byClass [isa.NumClasses]uint64) {
	for _, c := range cands {
		ready |= 1 << uint(c.warp)
		byClass[c.class] |= 1 << uint(c.warp)
	}
	return ready, byClass
}

// walkAll returns every warp of cands in o's issue order.
func walkAll(o Order, cands ...candidate) []int {
	ready, byClass := masks(cands)
	w := o.Walk(ready, &byClass)
	out := []int{}
	for i := w.Next(); i >= 0; i = w.Next() {
		out = append(out, i)
	}
	return out
}

// first returns the warp p would try first among cands.
func first(p Policy, cands ...candidate) int {
	ready, byClass := masks(cands)
	w := p.Order().Walk(ready, &byClass)
	return w.Next()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleRotate and oracleOrder are the issue stage before the bitmask
// walk, kept as the reference the walk must reproduce: the candidate list in
// ascending warp order, rotated so the first warp above the pivot leads
// (three in-place reversals), then stably bucketed by class rank.
func oracleRotate(cands []candidate, pivot int) {
	split := len(cands)
	for i, c := range cands {
		if c.warp > pivot {
			split = i
			break
		}
	}
	if split == 0 || split == len(cands) {
		return
	}
	oracleReverse(cands[:split])
	oracleReverse(cands[split:])
	oracleReverse(cands)
}

func oracleReverse(cands []candidate) {
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
}

func oracleOrder(cands []candidate, pivot int, rank func(isa.Class) int) []int {
	oracleRotate(cands, pivot)
	var buckets [isa.NumClasses][]candidate
	for _, c := range cands {
		r := rank(c.class)
		buckets[r] = append(buckets[r], c)
	}
	out := []int{}
	for _, b := range buckets {
		for _, c := range b {
			out = append(out, c.warp)
		}
	}
	return out
}

// gatesRank is GATES's class rank under [hi, LDST, SFU, lo].
func gatesRank(hi isa.Class) func(isa.Class) int {
	return func(c isa.Class) int {
		switch c {
		case hi:
			return 0
		case isa.LDST:
			return 1
		case isa.SFU:
			return 2
		default:
			return 3
		}
	}
}

// fpHigh returns a GATES instance whose priority switched to FP.
func fpHigh() *GATES {
	g := NewGATES()
	st := &SMState{}
	st.ACTV[isa.FP] = 1
	g.UpdatePriority(st)
	return g
}

// TestWalkMatchesRotateThenBucket pins the bitmask walk to the old
// rotate-then-stable-bucket arrangement for random ready masks and classes,
// every pivot, and every policy (GATES under both priorities).
func TestWalkMatchesRotateThenBucket(t *testing.T) {
	type policyCase struct {
		name string
		make func() Policy
		rank func(isa.Class) int
	}
	flat := func(isa.Class) int { return 0 }
	policies := []policyCase{
		{"LRR", func() Policy { return NewLRR() }, flat},
		{"TwoLevel", func() Policy { return NewTwoLevel() }, flat},
		{"GATES/INT-high", func() Policy { return NewGATES() }, gatesRank(isa.INT)},
		{"GATES/FP-high", func() Policy { return fpHigh() }, gatesRank(isa.FP)},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nWarps := 1 + rng.Intn(64)
		// Active warps carry a class; only the ready subset is walked, so
		// the per-class masks include active warps that are not ready.
		var byClass [isa.NumClasses]uint64
		var ready uint64
		var cands []candidate
		for i := 0; i < nWarps; i++ {
			if rng.Intn(4) == 0 {
				continue // idle or pending slot
			}
			c := isa.Class(rng.Intn(int(isa.NumClasses)))
			byClass[c] |= 1 << uint(i)
			if rng.Intn(3) != 0 {
				ready |= 1 << uint(i)
				cands = append(cands, cand(i, c))
			}
		}
		for pivot := -1; pivot <= 63; pivot++ {
			for _, pc := range policies {
				p := pc.make()
				if pivot >= 0 {
					p.OnIssue(pivot)
				}
				w := p.Order().Walk(ready, &byClass)
				got := []int{}
				for i := w.Next(); i >= 0; i = w.Next() {
					got = append(got, i)
				}
				want := oracleOrder(append([]candidate(nil), cands...), pivot, pc.rank)
				if !equalInts(got, want) {
					t.Fatalf("%s trial %d pivot %d: walk %v, rotate+bucket %v", pc.name, trial, pivot, got, want)
				}
			}
		}
	}
}

// TestWalkNextExceptMatchesFilteredWalk pins NextExcept to the plain walk
// filtered by the skip mask, for random ready, active and skip masks, every
// pivot and every policy. The skip mask grows between calls, as the issue
// stage's blocked sets do within a cycle. Each call must return the first
// warp of the plain walk past the previous one that is not in skip, and
// report as skipped exactly the skip warps it passed on the way.
func TestWalkNextExceptMatchesFilteredWalk(t *testing.T) {
	policies := []struct {
		name string
		make func() Policy
	}{
		{"LRR", func() Policy { return NewLRR() }},
		{"TwoLevel", func() Policy { return NewTwoLevel() }},
		{"GATES/INT-high", func() Policy { return NewGATES() }},
		{"GATES/FP-high", func() Policy { return fpHigh() }},
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		nWarps := 1 + rng.Intn(64)
		var byClass [isa.NumClasses]uint64
		var ready uint64
		for i := 0; i < nWarps; i++ {
			if rng.Intn(4) == 0 {
				continue // idle or pending slot
			}
			byClass[rng.Intn(int(isa.NumClasses))] |= 1 << uint(i)
			if rng.Intn(3) != 0 {
				ready |= 1 << uint(i)
			}
		}
		for pivot := -1; pivot <= 63; pivot++ {
			for _, pc := range policies {
				p := pc.make()
				if pivot >= 0 {
					p.OnIssue(pivot)
				}
				plain := p.Order().Walk(ready, &byClass)
				var order []int
				for i := plain.Next(); i >= 0; i = plain.Next() {
					order = append(order, i)
				}
				// Skip bits may fall on non-ready warps; the walk never
				// visits those, so they must never be reported.
				skip := rng.Uint64() & rng.Uint64()
				w := p.Order().Walk(ready, &byClass)
				pos := 0
				for {
					want, wantSkipped := -1, uint64(0)
					for ; pos < len(order); pos++ {
						bit := uint64(1) << uint(order[pos])
						if skip&bit != 0 {
							wantSkipped |= bit
							continue
						}
						want = order[pos]
						pos++
						break
					}
					got, skipped := w.NextExcept(skip)
					if got != want || skipped != wantSkipped {
						t.Fatalf("%s trial %d pivot %d skip %#x: NextExcept = %d, skipped %#x; filtered walk %d, skipped %#x",
							pc.name, trial, pivot, skip, got, skipped, want, wantSkipped)
					}
					if got < 0 {
						break
					}
					if rng.Intn(2) == 0 {
						skip |= rng.Uint64() & rng.Uint64()
					}
				}
			}
		}
	}
}

func TestRotateBasic(t *testing.T) {
	cands := []candidate{cand(0, isa.INT), cand(2, isa.INT), cand(5, isa.INT), cand(9, isa.INT)}
	o := Order{Pivot: 2, Groups: allClassesGroup}
	if got := walkAll(o, cands...); !equalInts(got, []int{5, 9, 0, 2}) {
		t.Fatalf("walk after 2 = %v", got)
	}
}

func TestRotateEdgeCases(t *testing.T) {
	cands := []candidate{cand(3, isa.INT), cand(7, isa.INT)}
	// Pivot before all: unchanged.
	if got := walkAll(Order{Pivot: -1, Groups: allClassesGroup}, cands...); !equalInts(got, []int{3, 7}) {
		t.Fatalf("walk after -1 = %v", got)
	}
	// Pivot after all (including the last slot and beyond): unchanged.
	for _, pivot := range []int{63, 100} {
		if got := walkAll(Order{Pivot: pivot, Groups: allClassesGroup}, cands...); !equalInts(got, []int{3, 7}) {
			t.Fatalf("walk after %d = %v", pivot, got)
		}
	}
	// Single element and empty.
	if got := walkAll(Order{Pivot: 0, Groups: allClassesGroup}, cand(1, isa.INT)); !equalInts(got, []int{1}) {
		t.Fatalf("single-warp walk = %v", got)
	}
	if got := walkAll(Order{Pivot: 5, Groups: allClassesGroup}); len(got) != 0 {
		t.Fatalf("empty walk = %v", got)
	}
}

func TestTwoLevelRoundRobin(t *testing.T) {
	p := NewTwoLevel()
	cands := []candidate{cand(1, isa.INT), cand(4, isa.FP), cand(8, isa.LDST)}
	if w := first(p, cands...); w != 1 {
		t.Fatalf("fresh scheduler should start from lowest warp, got %d", w)
	}
	p.OnIssue(1)
	if w := first(p, cands...); w != 4 {
		t.Fatalf("after issuing warp 1, next should be 4, got %d", w)
	}
}

func TestTwoLevelIgnoresType(t *testing.T) {
	// The baseline greedily intersperses types: the order depends only on
	// warp order, never on instruction class (the paper's §3 critique).
	p := NewTwoLevel()
	got := walkAll(p.Order(), cand(0, isa.FP), cand(1, isa.INT), cand(2, isa.FP))
	if !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("two-level reordered by type: %v", got)
	}
}

func TestLRRBehavesLikeRoundRobin(t *testing.T) {
	p := NewLRR()
	cands := []candidate{cand(0, isa.INT), cand(3, isa.FP)}
	p.OnIssue(first(p, cands...))
	if got := walkAll(p.Order(), cands...); got[0] != 3 {
		t.Fatalf("LRR did not rotate: %v", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewLRR().Name() != "LRR" || NewTwoLevel().Name() != "TwoLevel" || NewGATES().Name() != "GATES" {
		t.Fatal("policy names wrong")
	}
}
