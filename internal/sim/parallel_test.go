package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// fnvMix folds v into an FNV-1a style running hash.
func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// runDigests executes cfg/k to completion and returns the report plus
// per-SM digests of the full probe and issue-trace streams. Per-SM digests
// (rather than one global hash) make the oracle order-independent across SMs
// — the parallel engine interleaves different SMs' callbacks arbitrarily but
// must keep each SM's own stream identical — and each slot is only written by
// the goroutine stepping that SM, so the digest slices need no locking.
func runDigests(t *testing.T, cfg config.Config, k *kernels.Kernel) (*Report, []uint64, []uint64) {
	t.Helper()
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	probeD := make([]uint64, cfg.NumSMs)
	issueD := make([]uint64, cfg.NumSMs)
	for i := range probeD {
		probeD[i] = 14695981039346656037
		issueD[i] = 14695981039346656037
	}
	gpu.SetCycleProbe(func(smID int, cycle int64, lanes []LaneState) {
		h := probeD[smID]
		h = fnvMix(h, uint64(cycle))
		for _, l := range lanes {
			h = fnvMix(h, uint64(l.Class)<<32|uint64(l.Cluster))
			b := uint64(0)
			if l.Busy {
				b = 1
			}
			h = fnvMix(h, b<<8|uint64(l.State))
		}
		probeD[smID] = h
	})
	gpu.SetIssueTracer(func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
		h := issueD[smID]
		h = fnvMix(h, uint64(cycle))
		h = fnvMix(h, uint64(warpIdx)<<16|uint64(class)<<8|uint64(cluster))
		issueD[smID] = h
	})
	return gpu.Run(), probeD, issueD
}

// sameReport compares two reports ignoring the config they ran under (the
// worker count is the one field allowed to differ).
func sameReport(a, b *Report) bool {
	ca, cb := a.Config, b.Config
	a.Config, b.Config = config.Config{}, config.Config{}
	eq := reflect.DeepEqual(a, b)
	a.Config, b.Config = ca, cb
	return eq
}

// TestParallelEngineMatchesSerial pins the tentpole contract on a fixed
// matrix: every report field, probe stream and issue stream of the parallel
// engine is identical to the serial engine's, at several worker counts (even
// and odd shard splits, one-SM-per-worker).
func TestParallelEngineMatchesSerial(t *testing.T) {
	type tech struct {
		name  string
		sched config.SchedulerKind
		gate  config.GatingKind
		adapt bool
	}
	techs := []tech{
		{"baseline", config.SchedTwoLevel, config.GateNone, false},
		{"warpedgates", config.SchedGATES, config.GateCoordBlackout, true},
	}
	for _, bench := range []string{"hotspot", "bfs"} {
		k := kernels.MustBenchmark(bench).Scale(0.08)
		for _, tc := range techs {
			cfg := config.Small()
			cfg.NumSMs = 4
			cfg.Scheduler = tc.sched
			cfg.Gating = tc.gate
			cfg.AdaptiveIdleDetect = tc.adapt
			cfg.MaxCycles = 30000
			cfg.IntraRunWorkers = 1
			wantRep, wantProbe, wantIssue := runDigests(t, cfg, k)
			for _, workers := range []int{2, 3, 4} {
				pcfg := cfg
				pcfg.IntraRunWorkers = workers
				gotRep, gotProbe, gotIssue := runDigests(t, pcfg, k)
				if !sameReport(wantRep, gotRep) {
					t.Errorf("%s/%s workers=%d: report diverged\nserial:   %v\nparallel: %v",
						bench, tc.name, workers, wantRep, gotRep)
				}
				if !reflect.DeepEqual(wantProbe, gotProbe) {
					t.Errorf("%s/%s workers=%d: probe streams diverged", bench, tc.name, workers)
				}
				if !reflect.DeepEqual(wantIssue, gotIssue) {
					t.Errorf("%s/%s workers=%d: issue streams diverged", bench, tc.name, workers)
				}
			}
		}
	}
}

// TestBatchedEngineInvariantToTuning pins the engine's tuning contract: the
// worker count and batch size are pure performance knobs — any (workers,
// batch) combination produces the serial engine's reports and per-SM streams
// byte for byte. Workers cover the degenerate
// single-goroutine case, an uneven split, and one-SM-per-worker (NumSMs);
// batch 1 degenerates to per-cycle windows, 512 exceeds every natural window.
func TestBatchedEngineInvariantToTuning(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs"} {
		k := kernels.MustBenchmark(bench).Scale(0.08)
		cfg := config.Small()
		cfg.NumSMs = 4
		cfg.Scheduler = config.SchedGATES
		cfg.Gating = config.GateCoordBlackout
		cfg.AdaptiveIdleDetect = true
		cfg.MaxCycles = 30000
		cfg.IntraRunWorkers = 1
		wantRep, wantProbe, wantIssue := runDigests(t, cfg, k)
		for _, workers := range []int{1, 2, 3, 4} {
			for _, batch := range []int{1, 7, 64, 512} {
				pcfg := cfg
				pcfg.IntraRunWorkers = workers
				pcfg.BatchCycles = batch
				gotRep, gotProbe, gotIssue := runDigests(t, pcfg, k)
				if !sameReport(wantRep, gotRep) {
					t.Errorf("%s workers=%d batch=%d: report diverged\nserial:   %v\ngot:      %v",
						bench, workers, batch, wantRep, gotRep)
				}
				if !reflect.DeepEqual(wantProbe, gotProbe) || !reflect.DeepEqual(wantIssue, gotIssue) {
					t.Errorf("%s workers=%d batch=%d: streams diverged",
						bench, workers, batch)
				}
			}
		}
	}
}

// TestParallelEngineMatchesSerialQuick is the randomized version: arbitrary
// benchmark, policies, gating parameters, worker count and batch size must
// all produce the serial engine's exact probe digests and report.
func TestParallelEngineMatchesSerialQuick(t *testing.T) {
	benchNames := []string{"nw", "hotspot", "mri", "bfs", "kmeans"}
	f := func(benchRaw, schedRaw, gateRaw, idRaw, betRaw, wakeRaw, smRaw, workerRaw uint8, adaptive bool) bool {
		cfg := config.Small()
		cfg.NumSMs = 2 + int(smRaw%3) // 2..4 SMs
		cfg.Scheduler = []config.SchedulerKind{
			config.SchedLRR, config.SchedTwoLevel, config.SchedGATES,
		}[int(schedRaw)%3]
		cfg.Gating = []config.GatingKind{
			config.GateNone, config.GateConventional,
			config.GateNaiveBlackout, config.GateCoordBlackout,
		}[int(gateRaw)%4]
		cfg.IdleDetect = int(idRaw % 12)
		cfg.BreakEven = 1 + int(betRaw%30)
		cfg.WakeupDelay = int(wakeRaw % 10)
		cfg.AdaptiveIdleDetect = adaptive
		cfg.MaxCycles = 20000

		bench := benchNames[int(benchRaw)%len(benchNames)]
		k := kernels.MustBenchmark(bench).Scale(0.08)

		cfg.IntraRunWorkers = 1
		wantRep, wantProbe, wantIssue := runDigests(t, cfg, k)
		cfg.IntraRunWorkers = 2 + int(workerRaw)%int(cfg.NumSMs) // 2..NumSMs+1 (clamped)
		cfg.BatchCycles = []int{0, 1, 5, 64}[int(workerRaw>>2)%4]
		gotRep, gotProbe, gotIssue := runDigests(t, cfg, k)
		if !sameReport(wantRep, gotRep) {
			t.Logf("report diverged: %s workers=%d\nserial:   %v\nparallel: %v",
				bench, cfg.IntraRunWorkers, wantRep, gotRep)
			return false
		}
		if !reflect.DeepEqual(wantProbe, gotProbe) || !reflect.DeepEqual(wantIssue, gotIssue) {
			t.Logf("digests diverged: %s workers=%d", bench, cfg.IntraRunWorkers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
