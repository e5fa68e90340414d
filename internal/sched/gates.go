package sched

import "warpedgates/internal/isa"

// GATES is the paper's Gating-Aware Two-level Scheduler (§4). It keeps the
// two-level active/pending split but adds a dynamic type priority: one of
// INT/FP holds the highest priority while the other holds the lowest, with
// LDST then SFU fixed in between. The scheduler keeps issuing the
// highest-priority type while ready warps of that type exist, which clusters
// same-type instructions together and coalesces the execution-pipeline
// bubbles into long idle runs that power gating can exploit.
//
// Priority switches (paper §4.1, "dynamic priority switching"):
//   - when the highest type's active warp subset drains while the lowest
//     type's subset is non-empty, the two swap;
//   - with Coordinated Blackout, the priority also switches when every
//     cluster of the highest type is in blackout (§5);
//   - an optional MaxHold bound forces a swap after a fixed number of issue
//     cycles, the designer safety valve the paper mentions against
//     pathological starvation.
//
// One GATES instance is shared by both of an SM's scheduler slots, modeling
// the single per-SM priority register of the paper's Figure 7.
type GATES struct {
	highIsINT bool
	last      int
	// MaxHold, when positive, bounds how many consecutive cycles one type
	// may stay highest-priority. Zero disables the bound (paper default).
	MaxHold int
	hold    int

	switches uint64

	// buckets are reusable scratch space for Arrange's priority sort.
	buckets [4][]Candidate
}

// NewGATES returns a gating-aware scheduler with INT initially highest
// (paper §4.1: "We initialize INT as the highest priority").
func NewGATES() *GATES { return &GATES{highIsINT: true, last: -1} }

// UpdatePriority applies the dynamic priority-switch rules. The simulator
// calls it once per SM per cycle, before either scheduler slot arranges its
// candidates.
func (g *GATES) UpdatePriority(st *SMState) {
	hi, lo := g.highLow()
	swap := false
	switch {
	case st.ACTV[hi] == 0 && st.ACTV[lo] > 0:
		// The highest-priority subset drained: give the other type a turn.
		swap = true
	case st.AllBlackout[hi] && st.RDY[lo] > 0:
		// Both clusters of the highest type are blacked out; issuing it is
		// impossible for at least break-even time, so switch (§5).
		swap = true
	case g.MaxHold > 0 && g.hold >= g.MaxHold && st.ACTV[lo] > 0:
		// Designer-set starvation bound.
		swap = true
	}
	if swap {
		g.highIsINT = !g.highIsINT
		g.hold = 0
		g.switches++
		return
	}
	g.hold++
}

// highLow returns the current highest- and lowest-priority ALU types.
func (g *GATES) highLow() (hi, lo isa.Class) {
	if g.highIsINT {
		return isa.INT, isa.FP
	}
	return isa.FP, isa.INT
}

// rank maps a class to its priority rank under the current ordering
// [hi, LDST, SFU, lo] (paper §4.1: memory first among the middle classes).
func (g *GATES) rank(c isa.Class) int {
	hi, _ := g.highLow()
	switch c {
	case hi:
		return 0
	case isa.LDST:
		return 1
	case isa.SFU:
		return 2
	default: // lo
		return 3
	}
}

// Arrange orders candidates by type priority, round-robin within a type.
func (g *GATES) Arrange(cands []Candidate, st *SMState) {
	if len(cands) < 2 {
		return
	}
	rotate(cands, g.last)
	// Bucket by rank, preserving the rotated order within each bucket.
	for r := range g.buckets {
		g.buckets[r] = g.buckets[r][:0]
	}
	for _, c := range cands {
		r := g.rank(c.Class)
		g.buckets[r] = append(g.buckets[r], c)
	}
	out := cands[:0]
	for r := range g.buckets {
		out = append(out, g.buckets[r]...)
	}
}

// OnIssue records the issued warp for round-robin fairness within a type.
func (g *GATES) OnIssue(c Candidate) { g.last = c.WarpIdx }

// Name returns "GATES".
func (g *GATES) Name() string { return "GATES" }

// HighPriority returns the class currently holding the highest priority.
func (g *GATES) HighPriority() isa.Class {
	hi, _ := g.highLow()
	return hi
}

// Switches returns how many dynamic priority switches have occurred.
func (g *GATES) Switches() uint64 { return g.switches }
