package sched

import (
	"testing"

	"warpedgates/internal/isa"
)

// benchMasks builds a mixed 24-warp ready set (every other slot of a
// 48-warp table) with all four classes, plus a non-ready half.
func benchMasks() (ready uint64, byClass [isa.NumClasses]uint64) {
	for i := 0; i < 48; i++ {
		byClass[isa.Class(i/2%4)] |= 1 << uint(i)
		if i%2 == 0 {
			ready |= 1 << uint(i)
		}
	}
	return ready, byClass
}

// benchWalk walks the full order once per iteration and issues its first
// warp, the worst case for a slot whose first candidates all stall.
func benchWalk(b *testing.B, p Policy, update func()) {
	ready, byClass := benchMasks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
		w := p.Order().Walk(ready, &byClass)
		issued := w.Next()
		for w.Next() >= 0 {
		}
		p.OnIssue(issued)
	}
}

func BenchmarkTwoLevelWalk(b *testing.B) {
	benchWalk(b, NewTwoLevel(), func() {})
}

func BenchmarkGATESWalk(b *testing.B) {
	g := NewGATES()
	st := &SMState{}
	st.ACTV[isa.INT] = 6
	st.ACTV[isa.FP] = 6
	benchWalk(b, g, func() { g.UpdatePriority(st) })
}
