package sim

import (
	"fmt"
	"runtime"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// MeasureSteadyCycle drives a single SM of a freshly built device for warmup
// cycles and then times measure further cycles, reporting the steady-state
// wall-clock and heap-allocation cost per simulated cycle. The warmup lets
// every lazily grown buffer (the retire-event arena, per-warp transaction
// caches) reach its working capacity, so the measured window reflects the hot
// loop alone; allocsPerCycle uses the runtime's monotonic Mallocs counter and
// is therefore unaffected by garbage collections inside the window. Because
// that counter is process-wide, unrelated goroutines (GC workers, timers) can
// leak a handful of mallocs into a window; up to three windows are measured
// and the one with the fewest allocations wins — a genuine per-cycle
// allocation in the hot loop shows up in every window and survives the
// minimum. The bench harness records these numbers in BENCH_sim.json.
func MeasureSteadyCycle(cfg config.Config, k *kernels.Kernel, warmup, measure int64) (nsPerCycle, allocsPerCycle float64, err error) {
	if warmup < 0 || measure <= 0 {
		return 0, 0, fmt.Errorf("sim: invalid steady-cycle window warmup=%d measure=%d", warmup, measure)
	}
	cfg.NumSMs = 1
	cfg.MaxCycles = 0 // stepped manually; the workload must outlast the window
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		return 0, 0, err
	}
	sm := gpu.SMs()[0]
	var cyc int64
	for sm.st.Cycles < warmup && !sm.done() {
		sm.step(cyc)
		cyc++
	}
	if sm.done() {
		return 0, 0, fmt.Errorf("sim: workload %s drained during warmup; scale it up", k.Name)
	}
	best := false
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := sm.st.Cycles
		t0 := time.Now()
		for sm.st.Cycles < start+measure && !sm.done() {
			sm.step(cyc)
			cyc++
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cycles := sm.st.Cycles - start
		if cycles == 0 {
			return 0, 0, fmt.Errorf("sim: workload %s drained before the measured window", k.Name)
		}
		ns := float64(elapsed.Nanoseconds()) / float64(cycles)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(cycles)
		if !best || allocs < allocsPerCycle || (allocs == allocsPerCycle && ns < nsPerCycle) {
			nsPerCycle, allocsPerCycle = ns, allocs
			best = true
		}
		if allocsPerCycle == 0 {
			break
		}
	}
	return nsPerCycle, allocsPerCycle, nil
}
