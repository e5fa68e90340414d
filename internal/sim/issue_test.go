package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// oracleIssue is the issue stage before blocked-class skipping, kept as the
// reference SM.issue must reproduce: every slot tries each ready warp in
// walk order until one issues, and each failed attempt counts its own stall.
func oracleIssue(sm *SM, now int64) {
	sm.memBlocked = false
	for s, pol := range sm.policies {
		ready := sm.readyMask & sm.slotMask[s]
		if ready == 0 {
			continue
		}
		walk := pol.Order().Walk(ready, &sm.activeByClass)
		for i := walk.Next(); i >= 0; i = walk.Next() {
			if sm.tryIssue(now, i) {
				pol.OnIssue(i)
				break
			}
		}
	}
}

// mshrCounts returns the SM's MSHR-full counters: the table's own NoteFull
// count and the port's stall count.
func mshrCounts(sm *SM) (full, stalls uint64) {
	_, _, full = sm.memPort.MSHRStats()
	_, _, stalls = sm.memPort.Stats()
	return full, stalls
}

// TestIssueMatchesPerWarpOracle steps two identical GPUs cycle by cycle, one
// through SM.issue and one through oracleIssue, and requires equal SM
// statistics, MSHR-full counts and issue streams after every cycle. The
// matrix covers the type-blind policies and GATES with coordinated blackout
// and adaptive idle detect, a compute-bound and a memory-bound kernel, on the
// small test machine and the GTX480.
func TestIssueMatchesPerWarpOracle(t *testing.T) {
	techs := []struct {
		name  string
		apply func(c *config.Config)
	}{
		{"TwoLevel", func(c *config.Config) {
			c.Scheduler = config.SchedTwoLevel
			c.Gating = config.GateConventional
		}},
		{"LRR", func(c *config.Config) {
			c.Scheduler = config.SchedLRR
			c.Gating = config.GateNone
		}},
		{"WarpedGates", func(c *config.Config) {
			c.Scheduler = config.SchedGATES
			c.Gating = config.GateCoordBlackout
			c.AdaptiveIdleDetect = true
		}},
	}
	machines := []struct {
		name string
		cfg  func() config.Config
	}{
		{"Small", config.Small},
		{"GTX480", config.GTX480},
	}
	const scale = 0.1
	var stallsGate, stallsMem uint64
	for _, m := range machines {
		for _, bench := range []string{"hotspot", "lbm"} {
			for _, tech := range techs {
				cfg := m.cfg()
				tech.apply(&cfg)
				k := kernels.MustBenchmark(bench).Scale(scale)
				t.Run(m.name+"/"+bench+"/"+tech.name, func(t *testing.T) {
					st := compareIssueStages(t, cfg, k)
					stallsGate += st.IssueStallsGate
					stallsMem += st.IssueStallsMem
				})
			}
		}
	}
	// The comparison only means something if walks passed blocked classes.
	if stallsGate == 0 || stallsMem == 0 {
		t.Fatalf("matrix never blocked a class: gate stalls %d, mem stalls %d", stallsGate, stallsMem)
	}
}

// compareIssueStages runs cfg/k on two GPUs, the second with the oracle issue
// stage, and fails at the first cycle where they differ. It returns the summed
// SM statistics of the run.
func compareIssueStages(t *testing.T, cfg config.Config, k *kernels.Kernel) SMStats {
	t.Helper()
	fast, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var fastEv, slowEv []IssueEvent
	fast.SetIssueTracer(func(_ int, cycle int64, warp int, class isa.Class, cluster int) {
		fastEv = append(fastEv, IssueEvent{Cycle: cycle, Warp: warp, Class: class, Cluster: cluster})
	})
	slow.SetIssueTracer(func(_ int, cycle int64, warp int, class isa.Class, cluster int) {
		slowEv = append(slowEv, IssueEvent{Cycle: cycle, Warp: warp, Class: class, Cluster: cluster})
	})
	const maxCycles = 1 << 22
	var sum SMStats
	for now := int64(0); ; now++ {
		if now >= maxCycles {
			t.Fatalf("did not drain in %d cycles", maxCycles)
		}
		live := false
		for i, a := range fast.sms {
			b := slow.sms[i]
			if a.done() != b.done() {
				t.Fatalf("cycle %d SM %d: drained %v vs oracle %v", now, i, a.done(), b.done())
			}
			if a.done() {
				continue
			}
			live = true
			fastEv, slowEv = fastEv[:0], slowEv[:0]
			a.step(now)
			b.beginCycle(now)
			oracleIssue(b, now)
			b.endCycle(now)
			if a.st != b.st {
				t.Fatalf("cycle %d SM %d: stats\n%+v\noracle\n%+v", now, i, a.st, b.st)
			}
			fa, sa := mshrCounts(a)
			fb, sb := mshrCounts(b)
			if fa != fb || sa != sb {
				t.Fatalf("cycle %d SM %d: MSHR full/stalls %d/%d, oracle %d/%d", now, i, fa, sa, fb, sb)
			}
			if len(fastEv) != len(slowEv) {
				t.Fatalf("cycle %d SM %d: issues %v, oracle %v", now, i, fastEv, slowEv)
			}
			for j := range fastEv {
				if fastEv[j] != slowEv[j] {
					t.Fatalf("cycle %d SM %d: issues %v, oracle %v", now, i, fastEv, slowEv)
				}
			}
		}
		if !live {
			break
		}
	}
	for _, sm := range fast.sms {
		st := sm.Stats()
		sum.IssuedTotal += st.IssuedTotal
		sum.IssueStallsGate += st.IssueStallsGate
		sum.IssueStallsMem += st.IssueStallsMem
	}
	if sum.IssuedTotal == 0 {
		t.Fatal("nothing issued")
	}
	return sum
}
