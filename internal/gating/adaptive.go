package gating

import (
	"fmt"

	"warpedgates/internal/config"
)

// AdaptiveIdleDetect implements the paper's §5.1 mechanism: execution time is
// divided into epochs; a counter tracks critical wakeups per epoch; when the
// count exceeds a threshold the idle-detect window grows by one (gate more
// conservatively), and after several consecutive quiet epochs it shrinks by
// one. The window is bounded (paper: 5–10 cycles) and maintained separately
// per instruction type, because each type sees its own mix and schedule.
type AdaptiveIdleDetect struct {
	enabled   bool
	value     int
	min, max  int
	epochLen  int
	threshold int
	decEpochs int

	cycleInEpoch int
	criticals    int
	quietEpochs  int

	increments uint64
	decrements uint64
	epochs     uint64
}

// NewAdaptiveIdleDetect builds the mechanism from the configuration. When
// cfg.AdaptiveIdleDetect is false the value stays pinned at cfg.IdleDetect.
func NewAdaptiveIdleDetect(cfg config.Config) *AdaptiveIdleDetect {
	a := &AdaptiveIdleDetect{
		enabled:   cfg.AdaptiveIdleDetect,
		value:     cfg.IdleDetect,
		min:       cfg.IdleDetectMin,
		max:       cfg.IdleDetectMax,
		epochLen:  cfg.EpochCycles,
		threshold: cfg.CriticalThreshold,
		decEpochs: cfg.DecrementEpochs,
	}
	if a.enabled {
		if a.value < a.min {
			a.value = a.min
		}
		if a.value > a.max {
			a.value = a.max
		}
	}
	return a
}

// Value returns the current idle-detect window; Controllers take this method
// as their idleDetect closure.
func (a *AdaptiveIdleDetect) Value() int { return a.value }

// Tick advances one cycle, folding in the number of critical wakeups the
// type's clusters saw this cycle.
func (a *AdaptiveIdleDetect) Tick(criticalWakeups int) {
	if !a.enabled {
		return
	}
	if criticalWakeups < 0 {
		panic(fmt.Sprintf("gating: negative critical wakeups %d", criticalWakeups))
	}
	a.criticals += criticalWakeups
	a.cycleInEpoch++
	if a.cycleInEpoch < a.epochLen {
		return
	}
	a.endEpoch()
}

// endEpoch applies the per-epoch window update and starts the next epoch.
func (a *AdaptiveIdleDetect) endEpoch() {
	a.epochs++
	a.cycleInEpoch = 0
	if a.criticals > a.threshold {
		// Performance-critical phase: back off quickly.
		if a.value < a.max {
			a.value++
			a.increments++
		}
		a.quietEpochs = 0
	} else {
		// Quiet epoch: recover the window slowly (paper: every 4 epochs).
		a.quietEpochs++
		if a.quietEpochs >= a.decEpochs {
			if a.value > a.min {
				a.value--
				a.decrements++
			}
			a.quietEpochs = 0
		}
	}
	a.criticals = 0
}

// Stats returns how often the window moved and how many epochs elapsed.
func (a *AdaptiveIdleDetect) Stats() (increments, decrements, epochs uint64) {
	return a.increments, a.decrements, a.epochs
}

// Enabled reports whether adaptation is active.
func (a *AdaptiveIdleDetect) Enabled() bool { return a.enabled }
