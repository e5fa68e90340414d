package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// BenchmarkSMCycle measures the cost of one simulated SM cycle under the
// full Warped Gates configuration — the number that bounds how fast the
// figure harness can run.
func BenchmarkSMCycle(b *testing.B) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = config.GateCoordBlackout
	cfg.AdaptiveIdleDetect = true
	cfg.MaxCycles = 1 << 30
	k := kernels.MustBenchmark("hotspot").Scale(100) // effectively endless
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		b.Fatal(err)
	}
	sm := gpu.SMs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.step(int64(i))
	}
}

// BenchmarkMatrix runs representative benchmark × technique cells as named
// sub-benchmarks, so `go test -bench Matrix -count N | benchstat` compares
// apples to apples across commits (one row per cell). Each iteration is a
// complete small-machine run; the per-cycle cost is reported alongside.
func BenchmarkMatrix(b *testing.B) {
	techs := []struct {
		name  string
		apply func(c *config.Config)
	}{
		{"Baseline", func(c *config.Config) {
			c.Scheduler = config.SchedTwoLevel
			c.Gating = config.GateNone
		}},
		{"WarpedGates", func(c *config.Config) {
			c.Scheduler = config.SchedGATES
			c.Gating = config.GateCoordBlackout
			c.AdaptiveIdleDetect = true
		}},
	}
	for _, bench := range []string{"hotspot", "bfs"} {
		for _, tech := range techs {
			b.Run(bench+"/"+tech.name, func(b *testing.B) {
				cfg := config.Small()
				tech.apply(&cfg)
				k := kernels.MustBenchmark(bench).Scale(0.1)
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gpu, err := NewGPU(cfg, k)
					if err != nil {
						b.Fatal(err)
					}
					cycles += gpu.Run().Cycles
				}
				if cycles > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
				}
			})
		}
	}
}

// BenchmarkFullRunSmall measures a complete small-machine simulation.
func BenchmarkFullRunSmall(b *testing.B) {
	cfg := config.Small()
	k := kernels.MustBenchmark("nw").Scale(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu, err := NewGPU(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		gpu.Run()
	}
}
