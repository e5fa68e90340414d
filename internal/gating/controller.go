// Package gating implements the power-gating controllers evaluated in the
// paper: conventional power gating (Hu et al. [13]), the paper's Blackout
// scheme (no wakeup before break-even time), Coordinated Blackout across the
// two clusters of an execution-unit type, and the Adaptive idle-detect
// mechanism that tunes the idle-detect window from critical-wakeup counts.
//
// One Controller drives one gating domain (e.g. the INT pipes of SP cluster 0
// behind a single sleep transistor). The simulator calls RequestIssue during
// the issue stage whenever a ready instruction wants a gated unit, and Tick
// exactly once per cycle with the unit's busy/idle status.
package gating

import (
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/stats"
)

// State is the power-gating controller state (paper Figure 2c).
type State uint8

// Controller states. StActive corresponds to the paper's "Idle_detect" state:
// powered and counting idle cycles.
const (
	StActive State = iota
	StUncompensated
	StCompensated
	StWakeup
)

// String names the state.
func (s State) String() string {
	switch s {
	case StActive:
		return "Active"
	case StUncompensated:
		return "Uncompensated"
	case StCompensated:
		return "Compensated"
	case StWakeup:
		return "Wakeup"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Stats aggregates everything the paper's figures need from one gating domain.
type Stats struct {
	BusyCycles    uint64
	IdleCycles    uint64 // cycles with no instruction in the unit (any state)
	PoweredCycles uint64 // cycles consuming static power (Active + Wakeup)
	GatedCycles   uint64 // cycles with the sleep switch off
	UncompCycles  uint64 // gated cycles spent before break-even
	CompCycles    uint64 // gated cycles spent after break-even (Fig. 8b)

	GatingEvents    uint64 // sleep-switch activations (each charges E_ovh)
	Wakeups         uint64 // transitions into StWakeup (Fig. 8c)
	NegativeEvents  uint64 // wakeups taken from the uncompensated state
	CriticalWakeups uint64 // wakeups at the first compensated cycle (Fig. 6)
	DeniedWakeups   uint64 // demand arriving during blackout that had to wait

	// IdlePeriods is the distribution of maximal idle-run lengths (Fig. 3).
	IdlePeriods *stats.Histogram
}

// Controller is the per-domain power-gating state machine.
type Controller struct {
	kind        config.GatingKind
	idleDetect  func() int // indirection so Adaptive idle-detect can retune it
	breakEven   int
	wakeupDelay int

	state   State
	idleCtr int // consecutive idle cycles while Active
	betCtr  int // remaining cycles to break-even while gated
	wakeCtr int // remaining wakeup cycles

	curIdleRun     int  // length of the in-progress idle run
	demand         bool // a ready instruction wanted this unit this cycle
	inhibitGate    bool // coordinator directive: do not gate this cycle
	forceGate      bool // coordinator directive: gate now if idle
	firstCompCycle bool // true during the first cycle spent compensated

	st Stats
}

// NewController builds a controller for the given policy. idleDetect is
// evaluated every cycle, so adaptive mechanisms can share one closure across
// the two clusters of a type. breakEven and wakeupDelay are in cycles.
func NewController(kind config.GatingKind, idleDetect func() int, breakEven, wakeupDelay int) *Controller {
	if idleDetect == nil {
		panic("gating: nil idleDetect")
	}
	if breakEven <= 0 {
		panic(fmt.Sprintf("gating: breakEven must be positive, got %d", breakEven))
	}
	if wakeupDelay < 0 {
		panic(fmt.Sprintf("gating: wakeupDelay must be non-negative, got %d", wakeupDelay))
	}
	return &Controller{
		kind:        kind,
		idleDetect:  idleDetect,
		breakEven:   breakEven,
		wakeupDelay: wakeupDelay,
		state:       StActive,
		st:          Stats{IdlePeriods: stats.NewHistogram()},
	}
}

// State returns the current controller state.
func (c *Controller) State() State { return c.state }

// Gated reports whether the sleep switch is off (unit consuming ~no leakage).
func (c *Controller) Gated() bool {
	return c.state == StUncompensated || c.state == StCompensated
}

// InBlackout reports whether the unit is gated and the policy forbids waking
// it right now. Conventional gating never blacks out; Blackout policies do
// until break-even has passed.
func (c *Controller) InBlackout() bool {
	if c.state != StUncompensated {
		return false
	}
	return c.kind == config.GateNaiveBlackout || c.kind == config.GateCoordBlackout
}

// CanIssue reports whether an instruction may be issued to the unit this
// cycle: only a fully powered unit accepts work.
func (c *Controller) CanIssue() bool { return c.state == StActive }

// RequestIssue tells the controller a ready instruction wanted this unit this
// cycle while CanIssue() was false (or true — harmless). The demand is
// consumed by the next Tick and may trigger a wakeup, policy permitting.
func (c *Controller) RequestIssue() { c.demand = true }

// SetDirectives installs the coordinator's per-cycle gating directives; both
// are cleared by Tick. inhibit wins over force.
func (c *Controller) SetDirectives(inhibit, force bool) {
	c.inhibitGate = inhibit
	c.forceGate = force
}

// Tick advances the state machine by one cycle. busy reports whether any
// instruction occupied the unit's pipeline this cycle. Tick must be called
// exactly once per simulated cycle, after the issue stage.
func (c *Controller) Tick(busy bool) {
	if busy {
		c.st.BusyCycles++
	} else {
		c.st.IdleCycles++
	}

	switch c.state {
	case StActive:
		c.st.PoweredCycles++
		if busy {
			c.endIdleRun()
			c.idleCtr = 0
			break
		}
		c.curIdleRun++
		c.idleCtr++
		if c.kind == config.GateNone {
			break
		}
		shouldGate := c.idleCtr >= c.idleDetect()
		if c.forceGate {
			shouldGate = true
		}
		if c.inhibitGate {
			shouldGate = false
		}
		if shouldGate {
			c.state = StUncompensated
			c.betCtr = c.breakEven
			c.st.GatingEvents++
		}

	case StUncompensated:
		if busy {
			panic("gating: unit busy while gated")
		}
		c.st.GatedCycles++
		c.st.UncompCycles++
		c.curIdleRun++
		c.betCtr--
		// Conventional gating wakes on demand even before break-even,
		// paying for overhead it never recoups (a "negative" event).
		if c.demand && c.kind == config.GateConventional {
			c.st.NegativeEvents++
			c.beginWakeup()
			break
		}
		if c.demand {
			c.st.DeniedWakeups++
		}
		if c.betCtr <= 0 {
			c.state = StCompensated
			c.firstCompCycle = true
		}

	case StCompensated:
		if busy {
			panic("gating: unit busy while gated")
		}
		c.st.GatedCycles++
		c.st.CompCycles++
		c.curIdleRun++
		if c.demand {
			if c.firstCompCycle {
				// The instruction was waiting for the blackout to end:
				// the paper's critical wakeup (§5.1).
				c.st.CriticalWakeups++
			}
			c.beginWakeup()
			break
		}
		c.firstCompCycle = false

	case StWakeup:
		if busy {
			panic("gating: unit busy while waking up")
		}
		// The unit burns static power during wakeup but does no work.
		c.st.PoweredCycles++
		c.curIdleRun++
		c.wakeCtr--
		if c.wakeCtr <= 0 {
			c.state = StActive
			c.idleCtr = 0
		}
	}
	c.demand = false
	c.inhibitGate = false
	c.forceGate = false
}

// beginWakeup starts the wakeup sequence; with a zero wakeup delay the unit
// becomes operational next cycle.
func (c *Controller) beginWakeup() {
	c.st.Wakeups++
	c.firstCompCycle = false
	if c.wakeupDelay == 0 {
		c.state = StActive
		c.idleCtr = 0
		return
	}
	c.state = StWakeup
	c.wakeCtr = c.wakeupDelay
}

// endIdleRun closes the in-progress idle run and records it.
func (c *Controller) endIdleRun() {
	if c.curIdleRun > 0 {
		c.st.IdlePeriods.Add(c.curIdleRun)
		c.curIdleRun = 0
	}
}

// Finish closes any open idle run at end of simulation so the histogram
// accounts for every idle cycle.
func (c *Controller) Finish() { c.endIdleRun() }

// Stats returns a snapshot of the controller's counters. The histogram is
// shared, not copied; callers must not mutate it.
func (c *Controller) Stats() Stats { return c.st }

// Kind returns the controller's gating policy.
func (c *Controller) Kind() config.GatingKind { return c.kind }

// BreakEven returns the configured break-even time in cycles.
func (c *Controller) BreakEven() int { return c.breakEven }
