package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// errFloorSkipped marks a -floor gate that could not run because the host
// cannot schedule two workers in parallel. main maps it to exit code 3 so CI
// can tell "gate passed" (0) from "gate could not be measured" (3).
var errFloorSkipped = errors.New("bench: floor gate skipped")

// benchCell is one benchmark × technique measurement.
type benchCell struct {
	Bench          string  `json:"bench"`
	Technique      string  `json:"technique"`
	Cycles         int64   `json:"cycles"`
	WallMS         float64 `json:"wall_ms"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// scalingPoint is one intra-run worker count on the scaling curve.
type scalingPoint struct {
	Workers        int     `json:"workers"`
	WallMS         float64 `json:"wall_ms"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	// Speedup is serial wall time over this point's wall time (>1 = faster).
	// Interpret it against "gomaxprocs": on a single-core host the parallel
	// engine can only pay barrier overhead, so points below 1 are expected
	// there and say nothing about multi-core scaling.
	Speedup float64 `json:"speedup"`
}

// benchReport is the BENCH_sim.json payload.
type benchReport struct {
	SMs   int     `json:"sms"`
	Scale float64 `json:"scale"`
	// GOMAXPROCS records how many cores the measurement could actually use —
	// required context for judging IntraRunScaling.
	GOMAXPROCS int `json:"gomaxprocs"`

	// SteadyState measures the hot loop alone (one busy SM, warmed buffers):
	// its allocs_per_cycle is the zero-allocation claim of the simulator.
	SteadyState struct {
		Bench          string  `json:"bench"`
		Technique      string  `json:"technique"`
		NsPerCycle     float64 `json:"ns_per_cycle"`
		AllocsPerCycle float64 `json:"allocs_per_cycle"`
	} `json:"steady_state"`

	// Cells cover the full benchmark × technique matrix; their alloc counts
	// include device construction, amortized over the run.
	Cells []benchCell `json:"cells"`

	// IntraRunScaling is the phase-split engine's scaling curve: hotspot
	// under the full proposal, re-run at growing intra-run worker counts.
	// The workers=1 point is the serial engine and anchors the speedups.
	IntraRunScaling []scalingPoint `json:"intra_run_scaling"`

	// Makespan times the full benchmark × technique matrix through the
	// job-level runner twice — static submission order vs adaptive
	// (cost-model LPT order) — on fresh runners, so it measures scheduling, not caching. Speedup is
	// static_ms/adaptive_ms; interpret against "gomaxprocs" (a single-core
	// host can only measure scheduling overhead).
	Makespan struct {
		Jobs       int     `json:"jobs"`
		JobWorkers int     `json:"job_workers"`
		StaticMS   float64 `json:"static_ms"`
		AdaptiveMS float64 `json:"adaptive_ms"`
		Speedup    float64 `json:"speedup"`
	} `json:"makespan"`

	// Totals.MatrixMS sums the wall time of every cell. Snapshots written
	// before it existed carry other totals and decode with it zero.
	Totals struct {
		MatrixMS float64 `json:"matrix_ms"`
	} `json:"totals"`
}

// cmdBench times the full benchmark × technique matrix serially (one
// simulation at a time, bypassing the runner's memoization so every cell is
// really executed), measures the intra-run scaling curve, the job-level
// makespan and the steady-state per-cycle cost, and writes everything as
// JSON.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	sms := fs.Int("sms", 6, "number of SMs")
	scale := fs.Float64("scale", 0.25, "workload scale factor")
	workers := addWorkersFlag(fs)
	out := fs.String("out", "BENCH_sim.json", "output JSON path")
	floor := fs.Float64("floor", 0, "minimum intra-run speedup at 2 workers; exit nonzero below it (0 disables; exit 3 on single-core hosts that cannot measure it)")
	makespanFloor := fs.Float64("makespan-floor", 0, "minimum adaptive-vs-static matrix makespan speedup; enforced at >=4 cores, informational at 2-3, exit 3 on single-core hosts (0 disables)")
	calibrate := fs.String("calibrate", "", "write the cost-model calibration table to this file and exit (canonical path: internal/core/costdata.json)")
	storeDir := addStoreFlag(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calibrate != "" {
		return writeCalibration(*calibrate)
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		defer reportStoreHealth(st)
	}

	base := config.GTX480()
	base.NumSMs = *sms
	base.IntraRunWorkers = *workers

	var rep benchReport
	rep.SMs = *sms
	rep.Scale = *scale
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	runCell := func(bench string, tech core.Technique) (benchCell, *sim.Report, config.Config, error) {
		cfg := tech.Apply(base)
		k := kernels.MustBenchmark(bench).Scale(*scale)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		gpu, err := sim.NewGPU(cfg, k)
		if err != nil {
			return benchCell{}, nil, cfg, err
		}
		r := gpu.Run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cell := benchCell{
			Bench:     bench,
			Technique: tech.String(),
			Cycles:    r.Cycles,
			WallMS:    float64(wall.Nanoseconds()) / 1e6,
		}
		if r.Cycles > 0 {
			cell.NsPerCycle = float64(wall.Nanoseconds()) / float64(r.Cycles)
			cell.AllocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(r.Cycles)
		}
		return cell, r, cfg, nil
	}

	// commitCell persists a finished report to the durable store, after the
	// timing window closes so store I/O never pollutes a measurement. Bench
	// runs every cell for real either way; with -store, that effort also warms
	// the same cache later run/figure/verify invocations hit.
	commitCell := func(bench string, cfg config.Config, r *sim.Report) {
		if st == nil {
			return
		}
		payload, err := sim.EncodeReport(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: store encode %s: %v\n", bench, err)
			return
		}
		if err := st.Put(core.JobKey(bench, cfg, *scale), payload); err != nil {
			fmt.Fprintf(os.Stderr, "bench: store put %s: %v\n", bench, err)
		}
	}

	techs := core.AllTechniques()
	fmt.Fprintf(os.Stderr, "bench: %d benchmarks x %d techniques at sms=%d scale=%g\n",
		len(kernels.BenchmarkNames), len(techs), *sms, *scale)
	for _, bench := range kernels.BenchmarkNames {
		for _, tech := range techs {
			cell, r, cfg, err := runCell(bench, tech)
			if err != nil {
				return err
			}
			commitCell(bench, cfg, r)
			rep.Cells = append(rep.Cells, cell)
			rep.Totals.MatrixMS += cell.WallMS
		}
	}

	// Intra-run scaling curve: the same run at growing worker counts.
	// Candidate counts are clamped to the SM count (extra workers would
	// shard nothing) and deduplicated; -sms 15 yields the full {1,2,4,8,15}
	// curve of the GTX480 machine.
	scaleCfg := core.WarpedGates.Apply(base)
	scaleKernel := kernels.MustBenchmark("hotspot").Scale(*scale)
	var serialMS float64
	for _, w := range []int{1, 2, 4, 8, *sms} {
		if w > *sms {
			continue
		}
		if n := len(rep.IntraRunScaling); n > 0 && rep.IntraRunScaling[n-1].Workers == w {
			continue
		}
		cfg := scaleCfg
		cfg.IntraRunWorkers = w
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		gpu, err := sim.NewGPU(cfg, scaleKernel)
		if err != nil {
			return err
		}
		r := gpu.Run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		pt := scalingPoint{Workers: w, WallMS: float64(wall.Nanoseconds()) / 1e6}
		if r.Cycles > 0 {
			pt.NsPerCycle = float64(wall.Nanoseconds()) / float64(r.Cycles)
			pt.AllocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(r.Cycles)
		}
		if w == 1 {
			serialMS = pt.WallMS
		}
		if serialMS > 0 && pt.WallMS > 0 {
			pt.Speedup = serialMS / pt.WallMS
		}
		rep.IntraRunScaling = append(rep.IntraRunScaling, pt)
	}

	// Makespan: the full matrix through the job-level runner, static
	// submission order vs adaptive LPT order. Fresh runner per mode (empty
	// cache, no store) so both time real simulation; IntraRunWorkers=1 gives
	// both modes the widest job-level split.
	runMatrix := func(mode core.SchedMode) (float64, error) {
		mb := base
		mb.IntraRunWorkers = 1
		r := core.NewRunner(mb)
		r.Scale = *scale
		r.Sched = mode
		jobs := make([]core.Job, 0, len(kernels.BenchmarkNames)*len(techs))
		for _, bench := range kernels.BenchmarkNames {
			for _, tech := range techs {
				jobs = append(jobs, core.Job{Bench: bench, Cfg: tech.Apply(mb)})
			}
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := r.RunMany(jobs); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
	}
	rep.Makespan.Jobs = len(kernels.BenchmarkNames) * len(techs)
	rep.Makespan.JobWorkers = rep.GOMAXPROCS
	if rep.Makespan.JobWorkers > rep.Makespan.Jobs {
		rep.Makespan.JobWorkers = rep.Makespan.Jobs
	}
	staticMS, err := runMatrix(core.SchedStatic)
	if err != nil {
		return err
	}
	adaptiveMS, err := runMatrix(core.SchedAdaptive)
	if err != nil {
		return err
	}
	rep.Makespan.StaticMS, rep.Makespan.AdaptiveMS = staticMS, adaptiveMS
	if rep.Makespan.AdaptiveMS > 0 {
		rep.Makespan.Speedup = rep.Makespan.StaticMS / rep.Makespan.AdaptiveMS
	}

	// Steady-state hot-loop cost: a busy SM under the full proposal. Ten
	// retire-ring revolutions of warmup let the event arena reach its
	// high-water mark, after which the measured window allocates nothing.
	steadyCfg := core.WarpedGates.Apply(config.GTX480())
	steadyKernel := kernels.MustBenchmark("hotspot").Scale(100)
	ns, allocs, err := sim.MeasureSteadyCycle(steadyCfg, steadyKernel, 10*16384, 100000)
	if err != nil {
		return err
	}
	rep.SteadyState.Bench = "hotspot"
	rep.SteadyState.Technique = core.WarpedGates.String()
	rep.SteadyState.NsPerCycle = ns
	rep.SteadyState.AllocsPerCycle = allocs

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("steady state: %.0f ns/cycle, %g allocs/cycle\n", ns, allocs)
	fmt.Printf("matrix: %.0f ms\n", rep.Totals.MatrixMS)
	fmt.Printf("intra-run scaling (hotspot, %d cores):", rep.GOMAXPROCS)
	for _, pt := range rep.IntraRunScaling {
		fmt.Printf(" w%d=%.2fx", pt.Workers, pt.Speedup)
	}
	fmt.Println()
	fmt.Printf("makespan (%d jobs, %d job workers): static %.0f ms, adaptive %.0f ms, speedup %.2fx\n",
		rep.Makespan.Jobs, rep.Makespan.JobWorkers, rep.Makespan.StaticMS, rep.Makespan.AdaptiveMS, rep.Makespan.Speedup)
	fmt.Printf("wrote %s (%d cells)\n", *out, len(rep.Cells))
	if err := checkScalingFloor(&rep, *floor); err != nil {
		return err
	}
	return checkMakespanFloor(&rep, *makespanFloor)
}

// writeCalibration regenerates the committed cost-model calibration table by
// running every benchmark once at the fixed calibration point and writing the
// canonical encoding. Running it against internal/core/costdata.json must
// produce no diff: the table is deterministic, so a diff means the simulator's
// cycle counts moved and the embedded table is stale.
func writeCalibration(path string) error {
	t, err := core.CalibrateCostTable()
	if err != nil {
		return err
	}
	data, err := t.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks at sms=%d scale=%g)\n",
		path, len(t.Cells), core.CalCostSMS, core.CalCostScale)
	return nil
}

// checkScalingFloor enforces the -floor gate: the 2-worker point of the
// intra-run scaling curve must reach the given speedup. On a host where the
// runtime cannot schedule two workers in parallel the curve measures only
// barrier overhead, so the gate logs the skip reason to stderr and returns an
// error wrapping errFloorSkipped — exit code 3, distinct from both a pass (0)
// and a real failure (1) — rather than fail on a machine that cannot exhibit
// scaling at all. WARPEDGATES_FORCE_FLOOR=1 disables the self-skip: a CI job
// that knows it runs multi-core sets it so a misdetected GOMAXPROCS can only
// fail loudly (exit 1), never skip silently (exit 3 reads as a warning there).
func checkScalingFloor(rep *benchReport, floor float64) error {
	if floor <= 0 {
		return nil
	}
	if rep.GOMAXPROCS < 2 {
		if os.Getenv("WARPEDGATES_FORCE_FLOOR") == "1" {
			fmt.Fprintf(os.Stderr, "bench: WARPEDGATES_FORCE_FLOOR=1 — enforcing -floor %.2f despite GOMAXPROCS=%d\n",
				floor, rep.GOMAXPROCS)
		} else {
			fmt.Fprintf(os.Stderr, "bench: -floor %.2f skipped — GOMAXPROCS=%d cannot run workers in parallel\n",
				floor, rep.GOMAXPROCS)
			return fmt.Errorf("%w: GOMAXPROCS=%d < 2, cannot measure parallel scaling", errFloorSkipped, rep.GOMAXPROCS)
		}
	}
	for _, pt := range rep.IntraRunScaling {
		if pt.Workers != 2 {
			continue
		}
		if pt.Speedup < floor {
			return fmt.Errorf("bench: intra-run speedup at 2 workers is %.2fx, below the %.2fx floor", pt.Speedup, floor)
		}
		fmt.Printf("floor gate: w2=%.2fx >= %.2fx\n", pt.Speedup, floor)
		return nil
	}
	return fmt.Errorf("bench: -floor %.2f set but the scaling curve has no 2-worker point", floor)
}

// checkMakespanFloor enforces the -makespan-floor gate: adaptive scheduling
// (LPT order) must beat static submission order on full-matrix wall time by
// the given factor. The 20% target assumes enough job-level workers for the
// order to shorten the tail, so the gate self-scales: below 2 cores it skips with
// errFloorSkipped (exit 3) exactly like the scaling-floor gate, at 2-3 cores
// it reports the measurement without enforcing (too few workers to
// guarantee the target), and at >=4 cores it fails hard below the floor.
// WARPEDGATES_FORCE_FLOOR=1 promotes every tier to hard enforcement.
func checkMakespanFloor(rep *benchReport, floor float64) error {
	if floor <= 0 {
		return nil
	}
	forced := os.Getenv("WARPEDGATES_FORCE_FLOOR") == "1"
	m := rep.Makespan
	if rep.GOMAXPROCS < 2 && !forced {
		fmt.Fprintf(os.Stderr, "bench: -makespan-floor %.2f skipped — GOMAXPROCS=%d cannot run jobs in parallel\n",
			floor, rep.GOMAXPROCS)
		return fmt.Errorf("%w: GOMAXPROCS=%d < 2, cannot measure makespan scheduling", errFloorSkipped, rep.GOMAXPROCS)
	}
	if m.StaticMS <= 0 || m.AdaptiveMS <= 0 {
		return fmt.Errorf("bench: -makespan-floor %.2f set but the makespan section was not measured", floor)
	}
	if rep.GOMAXPROCS < 4 && !forced {
		fmt.Printf("makespan gate: %.2fx at %d cores — informational only, enforced at >=4 cores (floor %.2fx)\n",
			m.Speedup, rep.GOMAXPROCS, floor)
		return nil
	}
	if m.Speedup < floor {
		return fmt.Errorf("bench: adaptive makespan speedup is %.2fx, below the %.2fx floor (static %.0f ms, adaptive %.0f ms)",
			m.Speedup, floor, m.StaticMS, m.AdaptiveMS)
	}
	fmt.Printf("makespan gate: %.2fx >= %.2fx\n", m.Speedup, floor)
	return nil
}
