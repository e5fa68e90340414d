package sim

import (
	"runtime"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestScheduleRetirePanicsOutsideHorizon pins the retire ring's safety check:
// scheduling a writeback at or beyond the ring size (or in the past) must
// panic rather than alias another bucket.
func TestScheduleRetirePanicsOutsideHorizon(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 1
	k := kernels.MustBenchmark("nw").Scale(0.05)
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sm := gpu.SMs()[0]
	for _, at := range []int64{0, -5, retireRingSize, retireRingSize + 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduleRetire(now=0, at=%d) did not panic", at)
				}
			}()
			sm.scheduleRetire(0, at, sm.warps[0], 1)
		}()
	}
}

// TestStepZeroAllocsSteadyState asserts the zero-allocation property of the
// hot loop: once the retire-event arena and the per-warp transaction buffers
// have grown to their working capacities, stepping allocates nothing. The
// check is a raw Mallocs delta over a long window rather than
// testing.AllocsPerRun, whose integer division would round a fractional
// allocs-per-cycle rate down to zero and hide a slow leak. Unrelated
// goroutines (the test framework, the runtime) can malloc concurrently, so
// a nonzero delta is retried a couple of times before failing.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = config.GateCoordBlackout
	cfg.AdaptiveIdleDetect = true
	cfg.MaxCycles = 1 << 30
	k := kernels.MustBenchmark("hotspot").Scale(100) // effectively endless
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sm := gpu.SMs()[0]
	cyc := int64(0)
	for ; cyc < 10*retireRingSize; cyc++ { // let every arena hit its high-water mark
		sm.step(cyc)
	}
	const window = 100000
	var delta uint64
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := cyc + window
		for ; cyc < end; cyc++ {
			sm.step(cyc)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
		if delta == 0 {
			return
		}
	}
	t.Fatalf("steady-state step allocated %d objects over %d cycles, want 0", delta, window)
}
