package core

import (
	"fmt"
	"sort"
)

// SchedMode selects how the runner's parallel entry points order jobs. Scheduling can never change a result — every job is
// deterministic and results are positional — so the mode is not part of any
// cache key; it trades wall time only.
type SchedMode uint8

const (
	// SchedAdaptive, the default, admits jobs longest-predicted-first (LPT,
	// by the cost model), so the longest simulations do not start last and
	// stretch the batch's tail.
	SchedAdaptive SchedMode = iota
	// SchedStatic is the pre-cost-model behavior: submission order.
	SchedStatic
)

// String names the mode, lower-case to match the -sched flag values.
func (m SchedMode) String() string {
	switch m {
	case SchedAdaptive:
		return "adaptive"
	case SchedStatic:
		return "static"
	default:
		return fmt.Sprintf("SchedMode(%d)", uint8(m))
	}
}

// ParseSchedMode parses a -sched flag value.
func ParseSchedMode(s string) (SchedMode, error) {
	switch s {
	case "adaptive":
		return SchedAdaptive, nil
	case "static":
		return SchedStatic, nil
	}
	return 0, fmt.Errorf("core: unknown sched mode %q (want adaptive or static)", s)
}

// lptOrder returns job indices sorted by descending predicted cost — the LPT
// admission order. The sort is stable, so equal predictions keep submission
// order and the schedule is deterministic for a fixed model state.
func lptOrder(pred []float64) []int {
	order := make([]int, len(pred))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pred[order[a]] > pred[order[b]]
	})
	return order
}
