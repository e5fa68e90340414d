package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestMaxCyclesNeverOvershot pins the report-level cap invariant on both
// engines: no run may report Cycles > MaxCycles, and a run that runs out
// reports the cap exactly. The cap values are deliberately scattered so some
// land inside long idle stretches where every warp waits on memory.
func TestMaxCyclesNeverOvershot(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs", "mri", "nw", "kmeans"} {
		k := kernels.MustBenchmark(bench).Scale(0.1)
		for _, mc := range []int{50, 100, 500, 1000, 2000, 5000} {
			for _, workers := range []int{1, 2} {
				cfg := config.Small()
				cfg.Gating = config.GateCoordBlackout
				cfg.Scheduler = config.SchedGATES
				cfg.MaxCycles = mc
				cfg.IntraRunWorkers = workers
				gpu, err := NewGPU(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				r := gpu.Run()
				if r.Cycles > int64(mc) {
					t.Errorf("%s mc=%d workers=%d: Cycles=%d ranOut=%v overshoots the cap",
						bench, mc, workers, r.Cycles, r.RanOut)
				}
				if r.RanOut && r.Cycles != int64(mc) {
					t.Errorf("%s mc=%d workers=%d: ran out at %d, want the cap exactly",
						bench, mc, workers, r.Cycles)
				}
			}
		}
	}
}

// TestMaxCyclesClampsFastForwardJump forces a device that goes fully idle
// with every pending writeback scheduled past the cap, so no SM can make
// progress before MaxCycles. The run must still stop at, and report exactly,
// the cap on both engines. A long-latency memory stall right before a small cap produces the
// shape deterministically: bfs at small scale stalls all warps on DRAM within
// the first tens of cycles, and the fill cycle (DRAM latency plus queueing)
// lies far beyond caps placed inside the stall window.
func TestMaxCyclesClampsFastForwardJump(t *testing.T) {
	k := kernels.MustBenchmark("bfs").Scale(0.05)
	cfg := config.Small()
	cfg.DRAMLatency = 4000 // every miss's wake target dwarfs the caps below
	for _, mc := range []int{40, 60, 90, 130} {
		for _, workers := range []int{1, 2} {
			c := cfg
			c.MaxCycles = mc
			c.IntraRunWorkers = workers
			gpu, err := NewGPU(c, k)
			if err != nil {
				t.Fatal(err)
			}
			r := gpu.Run()
			if !r.RanOut {
				t.Fatalf("mc=%d workers=%d: expected the cap to hit (cycles=%d)", mc, workers, r.Cycles)
			}
			if r.Cycles != int64(mc) {
				t.Errorf("mc=%d workers=%d: Cycles=%d, want exactly the cap", mc, workers, r.Cycles)
			}
		}
	}
}
