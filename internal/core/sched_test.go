package core

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestWorkersBudgetSplit pins the budget division between job-level workers
// and intra-run workers, in particular the clamp fix: the divisor is the
// *effective* intra-run worker count (IntraRunWorkers clamped to NumSMs), so
// an oversized -workers knob cannot starve the job pool for goroutines the
// engine would never spawn.
func TestWorkersBudgetSplit(t *testing.T) {
	for _, tc := range []struct {
		j, iw, sms, want int
	}{
		{8, 1, 4, 8},   // serial engine: every core is a job worker
		{8, 2, 4, 4},   // jobs x workers = budget
		{8, 4, 4, 2},   //
		{8, 64, 2, 4},  // the fix: 64 clamps to 2 SMs, so 8/2, not 8/64->1
		{8, 64, 16, 1}, // genuinely wide runs do starve down to one job
		{2, 4, 8, 1},   // never below one job-level worker
		{3, 2, 4, 1},   // integer division floors
		{1, 8, 8, 1},
		{8, 0, 4, 8}, // unset knob means serial engine
	} {
		base := config.Small()
		base.NumSMs = tc.sms
		base.IntraRunWorkers = tc.iw
		r := NewRunner(base)
		r.Parallelism = tc.j
		if got := r.workers(); got != tc.want {
			t.Errorf("workers(j=%d iw=%d sms=%d) = %d, want %d", tc.j, tc.iw, tc.sms, got, tc.want)
		}
	}
}

// TestLPTOrder pins the admission order: descending predicted cost, stable
// among ties (so equal predictions keep submission order), +Inf — the doomed
// job marker — first of all.
func TestLPTOrder(t *testing.T) {
	for _, tc := range []struct {
		pred []float64
		want []int
	}{
		{[]float64{1, 5, 3}, []int{1, 2, 0}},
		{[]float64{2, 2, 2}, []int{0, 1, 2}}, // stable: ties keep submission order
		{[]float64{1, 5, math.Inf(1), 3}, []int{2, 1, 3, 0}},
		{[]float64{}, []int{}},
	} {
		if got := lptOrder(tc.pred); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("lptOrder(%v) = %v, want %v", tc.pred, got, tc.want)
		}
	}
}

// costTestModel builds a model over a tiny synthetic table at the standard
// calibration point.
func costTestModel() *CostModel {
	return NewCostModel(&CostTable{
		SMS:   CalCostSMS,
		Scale: CalCostScale,
		Cells: []CostCell{
			{Bench: "short", Cycles: 1000},
			{Bench: "long", Cycles: 3000},
		},
	})
}

// TestCostModelPrior pins the prediction's extrapolation: linear in workload
// scale and SM count from the calibration point, scaled down by the sampled
// detail fraction (floored so a sampled run never predicts free).
func TestCostModelPrior(t *testing.T) {
	m := costTestModel()
	cfg := config.Small()
	cfg.NumSMs = CalCostSMS
	at := func(c config.Config, scale float64) float64 { return m.Predict("short", c, scale) }

	ref := at(cfg, CalCostScale)
	if ref != 1000 {
		t.Fatalf("prediction at the calibration point = %g, want the calibration cycles (1000)", ref)
	}
	if got := at(cfg, 2*CalCostScale); got != 2*ref {
		t.Errorf("doubling scale: %g, want %g", got, 2*ref)
	}
	big := cfg
	big.NumSMs = 3 * CalCostSMS
	if got := at(big, CalCostScale); got != 3*ref {
		t.Errorf("tripling SMs: %g, want %g", got, 3*ref)
	}
	sampled := cfg
	sampled.SampleDetailCycles, sampled.SamplePeriod = 1000, 4000
	if got := at(sampled, CalCostScale); got != ref/4 {
		t.Errorf("1/4 sampling: %g, want %g", got, ref/4)
	}
	tiny := cfg
	tiny.SampleDetailCycles, tiny.SamplePeriod = 1, 100000
	if got := at(tiny, CalCostScale); got != 0.05*ref {
		t.Errorf("extreme sampling must floor at 5%%: got %g, want %g", got, 0.05*ref)
	}
	// Unknown benches predict at the table mean so ordering stays total.
	if got := m.Predict("mystery", cfg, CalCostScale); got != 2000 {
		t.Errorf("unknown bench = %g, want table mean 2000", got)
	}
}

// TestCostModelObserve pins the EWMA refinement: one observation rescales the
// bench's predictions to measured nanoseconds; repeated observations converge
// toward the newest measurement without ever leaving other benches' scales.
func TestCostModelObserve(t *testing.T) {
	m := costTestModel()
	cfg := config.Small()
	cfg.NumSMs = CalCostSMS

	m.Observe("short", cfg, CalCostScale, 5000*time.Nanosecond)
	if got := m.Predict("short", cfg, CalCostScale); got != 5000 {
		t.Fatalf("after one observation Predict = %g, want the measured 5000 ns", got)
	}
	if got := m.Predict("long", cfg, CalCostScale); got != 3000 {
		t.Fatalf("observation of one bench leaked into another: long = %g, want 3000", got)
	}
	for i := 0; i < 40; i++ {
		m.Observe("short", cfg, CalCostScale, 9000*time.Nanosecond)
	}
	if got := m.Predict("short", cfg, CalCostScale); math.Abs(got-9000) > 1 {
		t.Fatalf("EWMA did not converge to the new regime: %g, want ~9000", got)
	}
	// Degenerate observations must not poison the model.
	m.Observe("short", cfg, CalCostScale, 0)
	if got := m.Predict("short", cfg, CalCostScale); math.Abs(got-9000) > 1 {
		t.Fatalf("zero-wall observation changed the model: %g", got)
	}
}

// TestCostTableCommittedFresh is the calibration acceptance check: running the
// calibration reproduces the committed internal/core/costdata.json byte for
// byte. A diff means either the encoder lost determinism or the simulator's
// cycle counts moved and the committed table is stale — regenerate with
// `warpedgates bench -calibrate internal/core/costdata.json`.
func TestCostTableCommittedFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration simulates every benchmark; skipped with -short")
	}
	tab, err := CalibrateCostTable()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("costdata.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed costdata.json is stale or calibration lost determinism\n(regenerate with: go run ./cmd/warpedgates bench -calibrate internal/core/costdata.json)")
	}
	if len(tab.Cells) != len(kernels.BenchmarkNames) {
		t.Fatalf("calibration covered %d benchmarks, want %d", len(tab.Cells), len(kernels.BenchmarkNames))
	}
}

// schedRunner builds a fresh small-matrix runner in the given mode, with
// iw intra-run workers per simulation.
func schedRunner(mode SchedMode, par, iw int) *Runner {
	base := config.Small()
	base.IntraRunWorkers = iw
	r := NewRunner(base)
	r.Scale = 0.2
	r.Parallelism = par
	r.Sched = mode
	return r
}

// TestRunManyAdaptiveMatchesStatic is the tentpole's correctness contract at
// the job level: the same batch run under the adaptive schedule (LPT order,
// two intra-run workers per job) and under static order on the serial engine
// produces fingerprint-identical reports in identical positions.
// Fresh runners per mode, so nothing is shared through a cache.
func TestRunManyAdaptiveMatchesStatic(t *testing.T) {
	jobs := techniqueJobs(config.Small(), kernels.BenchmarkNames, Baseline, WarpedGates)
	static, err := schedRunner(SchedStatic, 4, 1).RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		adaptive, err := schedRunner(SchedAdaptive, par, 2).RunMany(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(adaptive) != len(static) {
			t.Fatalf("par=%d: %d reports, want %d", par, len(adaptive), len(static))
		}
		for i := range jobs {
			if f, g := FingerprintReport(static[i]), FingerprintReport(adaptive[i]); f != g {
				t.Errorf("par=%d %s/%s: adaptive fingerprint diverged\nstatic:   %s\nadaptive: %s",
					par, jobs[i].Bench, jobs[i].Cfg.Gating, f, g)
			}
		}
	}
}

// TestRunManyAdaptiveFailFast pins the doomed-job ordering: a job that cannot
// pass validation sorts ahead of every simulation under LPT, so the batch
// fails in milliseconds instead of after the longest cell.
func TestRunManyAdaptiveFailFast(t *testing.T) {
	r := schedRunner(SchedAdaptive, 4, 1)
	jobs := techniqueJobs(config.Small(), kernels.BenchmarkNames, Baseline)
	jobs = append(jobs, Job{Bench: "no-such-benchmark", Cfg: Baseline.Apply(r.Base)})
	t0 := time.Now()
	reps, err := r.RunMany(jobs)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if reps != nil {
		t.Fatal("failed batch returned partial results")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("doomed job took %v to surface — LPT buried it behind simulations", d)
	}
}

// TestGoldenMatrixSchedStable is the byte-stability acceptance check for the
// scheduler: the full 108-cell corpus renders identically under the static
// order and the adaptive schedule (which reorders dispatch). The committed corpus itself is pinned by
// TestGoldenMatrixCorpus; this proves the mode cannot move a byte.
func TestGoldenMatrixSchedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated full matrices are slow; skipped with -short")
	}
	corpus := func(mode SchedMode, par, iw int) string {
		base := config.Small()
		base.IntraRunWorkers = iw
		r := NewRunner(base)
		r.Scale = goldenMatrixScale
		r.Parallelism = par
		r.Sched = mode
		got, err := goldenCorpus(r)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := corpus(SchedStatic, 1, 1)
	for _, tc := range []struct{ par, iw int }{{8, 1}, {4, 2}, {3, 2}} {
		got := corpus(SchedAdaptive, tc.par, tc.iw)
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("adaptive(-j %d -workers %d) corpus drifted; first diff at line %d:\n  static:   %s\n  adaptive: %s",
					tc.par, tc.iw, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("adaptive(-j %d -workers %d) corpus drifted: length mismatch", tc.par, tc.iw)
	}
}
