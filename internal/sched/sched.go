// Package sched implements the warp-scheduling policies the paper evaluates:
// a loose round-robin scheduler (the pre-two-level baseline), the two-level
// warp scheduler of Gebhart et al. [12] (the paper's baseline), and GATES,
// the gating-aware two-level scheduler that is the paper's first
// contribution.
//
// A policy never sees a candidate list. Once per scheduler slot per cycle it
// reports its issue order as data (Order): a round-robin pivot, which is the
// last warp it issued, and its class-priority groups. The simulator walks the
// slot's ready-warp bitmask in that order (Walk), passing over the warps of
// classes it already knows cannot issue this cycle (NextExcept), until one
// warp passes the structural and gating checks, then reports the issued warp
// back through OnIssue. Two policy instances per SM model Fermi's dual
// schedulers; GATES instances share per-SM priority state, matching the
// paper's single per-SM priority register.
package sched

import (
	"math/bits"

	"warpedgates/internal/isa"
)

// SMState is the per-cycle scheduler-visible SM state: the per-type counters
// the paper adds for GATES (ACTV and RDY, §6) plus blackout visibility for
// the priority-switch extension (§5).
type SMState struct {
	// ACTV counts warps in the active warp subset per type (incremented on
	// entry, decremented on exit — paper's INT_ACTV/FP_ACTV).
	ACTV [isa.NumClasses]int
	// RDY counts ready warps per type (paper's INT_RDY/FP_RDY/...).
	RDY [isa.NumClasses]int
	// AllBlackout reports that every cluster of a type is in blackout, so
	// issuing that type is impossible for at least the break-even time.
	AllBlackout [isa.NumClasses]bool
}

// ClassSet is a set of instruction classes: bit c stands for isa.Class(c).
type ClassSet uint8

// Mask returns the warps whose next instruction is of a class in s, given
// the per-class warp bitmasks.
func (s ClassSet) Mask(byClass *[isa.NumClasses]uint64) uint64 {
	var m uint64
	for ; s != 0; s &= s - 1 {
		m |= byClass[bits.TrailingZeros8(uint8(s))]
	}
	return m
}

// Order is a policy's issue order for one scheduler slot in one cycle. Warps
// are visited group by group, in the order of Groups; within a group, first
// the warps above Pivot and then the rest, each part in ascending warp index
// (loose round-robin after the last-issued warp). Groups is shared and must
// not be modified.
type Order struct {
	// Pivot is the last-issued warp, or -1 before the first issue.
	Pivot int
	// Groups are the class-priority groups, highest priority first.
	Groups []ClassSet
}

// Walk enumerates the warps of ready in o's issue order. byClass gives, per
// class, the warps whose next instruction is of that class; ready must be a
// subset of their union. The walk reads byClass as it advances from group to
// group, so byClass must not change while it is in use.
func (o Order) Walk(ready uint64, byClass *[isa.NumClasses]uint64) Walk {
	// Shifting by 64 (pivot 63) yields 0 for an unsigned operand.
	return Walk{ready: ready, above: ^uint64(0) << uint(o.Pivot+1), byClass: byClass, groups: o.Groups}
}

// Walk is an in-progress priority walk over a ready-warp bitmask. Each class
// group splits into the part above the pivot and the rest; each part is
// visited in ascending warp index, and a group's masks are only computed
// once the walk reaches it, so a walk touches only the groups it reaches.
type Walk struct {
	ready, above uint64
	byClass      *[isa.NumClasses]uint64
	groups       []ClassSet // groups not yet reached
	cur, rest    uint64     // unvisited warps of the current part; the group's other part
}

// Next returns the next warp of the walk, or -1 when every warp was visited.
func (w *Walk) Next() int {
	warp, _ := w.NextExcept(0)
	return warp
}

// NextExcept returns the next warp of the walk that is not in skip, or -1
// when none is left. skipped holds the warps of skip the walk passed on the
// way, which it will not visit again. A part whose warps are all in skip is
// passed whole, so skipping a blocked class costs no per-warp step.
func (w *Walk) NextExcept(skip uint64) (warp int, skipped uint64) {
	for {
		if w.cur == 0 {
			if w.rest != 0 {
				w.cur, w.rest = w.rest, 0
				continue
			}
			if len(w.groups) == 0 {
				return -1, skipped
			}
			m := w.ready & w.groups[0].Mask(w.byClass)
			w.groups = w.groups[1:]
			w.cur, w.rest = m&w.above, m&^w.above
			continue
		}
		open := w.cur &^ skip
		if open == 0 {
			skipped |= w.cur
			w.cur = 0
			continue
		}
		bit := open & -open
		below := bit - 1
		skipped |= w.cur & below
		w.cur &^= bit | below
		return bits.TrailingZeros64(bit), skipped
	}
}

// Policy decides the issue order. Implementations may keep history (e.g.
// round-robin pointers) and are informed of every successful issue.
type Policy interface {
	// Order returns the issue order for the slot's next walk.
	Order() Order
	// OnIssue notifies the policy that warp was issued.
	OnIssue(warp int)
	// Name returns the policy's short name.
	Name() string
}

// allClassesGroup is the single class group of the type-blind policies:
// every instruction class.
var allClassesGroup = []ClassSet{1<<isa.NumClasses - 1}

// roundRobin is loose round-robin after the last-issued warp, blind to
// instruction type.
type roundRobin struct {
	last int
}

// Order puts every class in one group, pivoted on the last-issued warp.
func (p *roundRobin) Order() Order { return Order{Pivot: p.last, Groups: allClassesGroup} }

// OnIssue records the issued warp for the next rotation.
func (p *roundRobin) OnIssue(warp int) { p.last = warp }

// LRR is a loose round-robin scheduler with no type awareness; it serves as
// the simplest ablation baseline.
type LRR struct {
	roundRobin
}

// NewLRR returns a loose round-robin policy.
func NewLRR() *LRR { return &LRR{roundRobin{last: -1}} }

// Name returns "LRR".
func (p *LRR) Name() string { return "LRR" }

// TwoLevel is the paper's baseline scheduler: warps waiting on long-latency
// events live in a pending set (enforced by the simulator — they are never
// ready), and ready warps issue greedily in loose round-robin order without
// regard to instruction type. The greedy interspersing of types is precisely
// what produces the short idle periods of paper Figure 3a.
type TwoLevel struct {
	roundRobin
}

// NewTwoLevel returns a two-level baseline policy.
func NewTwoLevel() *TwoLevel { return &TwoLevel{roundRobin{last: -1}} }

// Name returns "TwoLevel".
func (p *TwoLevel) Name() string { return "TwoLevel" }

// ensure interface conformance.
var (
	_ Policy = (*LRR)(nil)
	_ Policy = (*TwoLevel)(nil)
	_ Policy = (*GATES)(nil)
)
