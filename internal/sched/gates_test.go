package sched

import (
	"testing"
	"testing/quick"

	"warpedgates/internal/isa"
)

func TestGATESInitialPriorityIsINT(t *testing.T) {
	g := NewGATES()
	if g.HighPriority() != isa.INT {
		t.Fatalf("initial high priority = %s, want INT (paper §4.1)", g.HighPriority())
	}
}

func TestGATESOrdering(t *testing.T) {
	g := NewGATES()
	cands := []candidate{
		cand(0, isa.FP), cand(1, isa.SFU), cand(2, isa.LDST), cand(3, isa.INT), cand(4, isa.FP),
	}
	order := walkAll(g.Order(), cands...)
	// Expected rank order with INT high: INT, LDST, SFU, FP.
	class := map[int]isa.Class{}
	for _, c := range cands {
		class[c.warp] = c.class
	}
	wantClasses := []isa.Class{isa.INT, isa.LDST, isa.SFU, isa.FP, isa.FP}
	if len(order) != len(wantClasses) {
		t.Fatalf("walk visited %v, want %d warps", order, len(wantClasses))
	}
	for i, w := range order {
		if class[w] != wantClasses[i] {
			t.Fatalf("position %d: got %s, want %s (order %v)", i, class[w], wantClasses[i], order)
		}
	}
}

func TestGATESPrioritySwitchOnDrain(t *testing.T) {
	g := NewGATES()
	st := &SMState{}
	st.ACTV[isa.INT] = 0
	st.ACTV[isa.FP] = 3
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("priority did not switch when INT subset drained")
	}
	// And back.
	st.ACTV[isa.INT] = 2
	st.ACTV[isa.FP] = 0
	g.UpdatePriority(st)
	if g.HighPriority() != isa.INT {
		t.Fatal("priority did not switch back")
	}
	if g.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", g.Switches())
	}
}

func TestGATESNoSwitchWhenBothEmpty(t *testing.T) {
	g := NewGATES()
	st := &SMState{}
	g.UpdatePriority(st) // ACTV all zero: hold
	if g.HighPriority() != isa.INT {
		t.Fatal("switched with empty subsets")
	}
}

func TestGATESBlackoutSwitch(t *testing.T) {
	// §5: switch priority when every cluster of the highest type is in
	// blackout and the other type has ready work.
	g := NewGATES()
	st := &SMState{}
	st.ACTV[isa.INT] = 4
	st.ACTV[isa.FP] = 4
	st.RDY[isa.FP] = 2
	st.AllBlackout[isa.INT] = true
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("priority did not switch when INT clusters blacked out")
	}
}

func TestGATESBlackoutSwitchNeedsReadyWork(t *testing.T) {
	g := NewGATES()
	st := &SMState{}
	st.ACTV[isa.INT] = 4
	st.AllBlackout[isa.INT] = true
	st.RDY[isa.FP] = 0
	g.UpdatePriority(st)
	if g.HighPriority() != isa.INT {
		t.Fatal("switched although the other type has no ready warps")
	}
}

func TestGATESMaxHold(t *testing.T) {
	g := NewGATES()
	g.MaxHold = 3
	st := &SMState{}
	st.ACTV[isa.INT] = 4
	st.ACTV[isa.FP] = 4
	for i := 0; i < 3; i++ {
		g.UpdatePriority(st)
		if g.HighPriority() != isa.INT {
			t.Fatalf("switched early at %d", i)
		}
	}
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("MaxHold did not force a switch")
	}
}

func TestGATESRoundRobinWithinType(t *testing.T) {
	g := NewGATES()
	cands := []candidate{cand(0, isa.INT), cand(4, isa.INT), cand(8, isa.INT)}
	g.OnIssue(first(g, cands...)) // warp 0
	if got := walkAll(g.Order(), cands...); got[0] != 4 {
		t.Fatalf("round-robin within type broken: %v", got)
	}
}

func TestGATESSeparatesINTAndFPToEnds(t *testing.T) {
	// Property (paper §4.1): whatever the current priority, INT and FP are
	// never adjacent in the middle of the order — one of them is first and
	// the other last among the classes present.
	f := func(classRaw []uint8, flip bool) bool {
		g := NewGATES()
		if flip {
			g = fpHigh()
		}
		var cands []candidate
		class := map[int]isa.Class{}
		for i, cr := range classRaw {
			if i == 64 {
				break
			}
			cands = append(cands, cand(i, isa.Class(cr%4)))
			class[i] = isa.Class(cr % 4)
		}
		lo := isa.FP
		if g.HighPriority() == isa.FP {
			lo = isa.INT
		}
		// After the first lo-class warp, only lo-class may follow.
		seenLo := false
		for _, w := range walkAll(g.Order(), cands...) {
			if class[w] == lo {
				seenLo = true
			} else if seenLo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGATESArrangePreservesCandidateSet(t *testing.T) {
	// Property: the walk visits every ready warp exactly once and nothing
	// else, for any pivot.
	f := func(classRaw []uint8, pivotRaw uint8) bool {
		g := NewGATES()
		if pivot := int(pivotRaw%65) - 1; pivot >= 0 {
			g.OnIssue(pivot)
		}
		var cands []candidate
		before := map[int]bool{}
		for i, cr := range classRaw {
			if i == 64 {
				break
			}
			if cr&0x80 != 0 {
				continue // not ready
			}
			cands = append(cands, cand(i, isa.Class(cr%4)))
			before[i] = true
		}
		visited := walkAll(g.Order(), cands...)
		if len(visited) != len(before) {
			return false
		}
		for _, w := range visited {
			if !before[w] {
				return false
			}
			delete(before, w)
		}
		return len(before) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
