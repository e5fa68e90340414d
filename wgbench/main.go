// Command wgbench is the repository's benchmark. It drives the simulator
// through its Go APIs (core, sim, store, serve) on one workload per process,
// checks every report it gets against the serial engine, and prints one JSON
// result line: end-to-end metrics from an untraced run (--trace 0), or
// per-layer metrics from a traced run (--trace 1). README.md in this
// directory lists the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash wgbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"warpedgates/internal/sim"
)

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 41

// runLimit bounds a whole run; past it the process fails rather than hang.
const runLimit = 170 * time.Second

// workload is one benchmark input set. jobs lists every simulation the
// workload may ask for under a seed (the reference covers them); setup
// builds one round's fixture, and the time it takes is the set-up time. A
// fixture given a non-nil tracer records spans and per-layer samples.
type workload struct {
	name  string
	jobs  func(seed uint64) []simJob
	setup func(e *env, tr *tracer) (fixture, error)
	// extras, when set, adds traced-run per-layer probes that sit outside
	// rounds.
	extras func(e *env, rounds []round) error
}

// fixture is one round's set-up system. run measures the round; close
// tears it down and is called whether or not run succeeded.
type fixture interface {
	run() (round, error)
	close()
}

// round is what one repetition of a workload measured.
type round struct {
	traced  bool
	wall    time.Duration // host time to finish the round's simulations
	elapsed time.Duration // the whole measured round, fetch phases included
	instrs  uint64        // simulated warp instructions
	cycles  int64         // simulated device cycles
	mallocs uint64        // heap objects allocated while simulating
	ops     int           // operations completed: jobs and fetches
	cold    []time.Duration
	warm    []time.Duration
	restart []time.Duration
	// reports holds the round's reports by job label, for the output check
	// and the traced run's modelled-component counts.
	reports map[string]*sim.Report
}

// env is the state of one benchmark process.
type env struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	nproc    int
	tr       *tracer // nil in the untraced run
	work     string  // the run's working directory inside .bench_build
	jobs     []simJob
	rng      *rand.Rand // the seed's fetch pattern
	round    int        // rounds run so far
	// reports keeps one report per job label for the traced run's codec
	// and modelled-component metrics.
	reports map[string]*sim.Report
	ref     refSet // the expected fingerprints, known once measuring ends

	mu        sync.Mutex
	attempted int
	failed    int
	samples   map[string][]float64 // per-layer samples by metric name
}

// op counts one attempted operation, failed when err is non-nil.
func (e *env) op(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 10 {
			fmt.Fprintln(os.Stderr, "wgbench: failed:", err)
		}
	}
}

// add records per-layer samples.
func (e *env) add(name string, vs ...float64) {
	e.mu.Lock()
	e.samples[name] = append(e.samples[name], vs...)
	e.mu.Unlock()
}

// tempDir makes a fresh directory for one fixture.
func (e *env) tempDir() (string, error) {
	return os.MkdirTemp(e.work, "round-")
}

var workloads = []*workload{paperMatrix, longRunParallel, serviceMixed}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wgbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-matrix, long-run-parallel or service-mixed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: job order, simulation seeds and fetch pattern")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 for the traced run, which prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "where the traced run writes its spans (default .bench_build/traces/<workload>-seed<seed>.json)")
	writeRef := fs.String("write-ref", "", "compute the default-seed references into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	if *writeRef != "" {
		if err := writeReferences(*writeRef, nproc); err != nil {
			fmt.Fprintln(os.Stderr, "wgbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "wgbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "wgbench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	defer timer.Stop()

	e := &env{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    nproc,
		jobs:     w.jobs(*seed),
		rng:      rand.New(rand.NewSource(int64(*seed) ^ 0x5eed)),
		samples:  map[string][]float64{},
		reports:  map[string]*sim.Report{},
	}
	if *traced == 1 {
		e.tr = newTracer()
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	res, err := e.measure(*traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wgbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.info); err != nil {
		return 1
	}
	if err := enc.Encode(res.line); err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: what was run, where,
// and how many samples stand behind each metric.
type runInfo struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Traced    bool      `json:"traced"`
	Machine   machine   `json:"machine"`
	Rounds    int       `json:"rounds"`
	RoundWall []float64 `json:"round_wall_s"`
	// WallSpread is the rounds' interquartile range of wall time as a share
	// of its median.
	WallSpread float64        `json:"round_wall_spread"`
	Samples    map[string]int `json:"samples"`
	ErrorRate  float64        `json:"error_rate"`
	// StealPct is the share of host CPU time the hypervisor gave to other
	// guests while measuring; it explains most run-to-run spread.
	StealPct float64            `json:"steal_pct"`
	Tails    map[string]float64 `json:"tails,omitempty"`
}

type result struct {
	info runInfo
	line resultLine
}

// machine is the host fingerprint every result carries, so results from
// different hosts are never compared as if they were one.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func hostMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// measure runs rounds for the configured time and assembles the result.
// The traced run alternates untraced and traced rounds, so the tracing
// overhead is measured in the same process.
func (e *env) measure(traceOut string) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return nil, err
	}
	e.work = work
	defer os.RemoveAll(work)

	var rounds []round
	var setups []float64
	type sum struct{ label, sum string }
	var sums []sum
	// keep fingerprints a round's reports for the output check, then drops
	// them, keeping one per job for the traced run's metrics.
	keep := func(rd *round) {
		for label, rep := range rd.reports {
			sums = append(sums, sum{label, fingerprintSum(rep)})
			if e.tr != nil {
				e.reports[label] = rep
			}
		}
		rd.reports = nil
	}
	// A warm-up round, checked but not measured, lets the heap grow to its
	// working size and the process-wide cost model learn this host, so the
	// measured rounds are alike.
	warm, _, err := e.oneRound(nil, true)
	if err != nil {
		return nil, err
	}
	keep(&warm)
	rt0, steal0 := readRuntime(), readSteal()
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		rd, setup, err := e.oneRound(tr, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		rd.traced = tr != nil
		keep(&rd)
		rounds = append(rounds, rd)
		if time.Since(start) >= e.seconds && (e.tr == nil || i >= 1) {
			break
		}
	}
	rt1, steal1 := readRuntime(), readSteal()
	for len(setups) < minSetups {
		_, setup, err := e.oneRound(nil, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	rss := peakRSSMB()

	// The output check runs after measuring, so computing a reference for a
	// non-default seed adds neither time nor memory to what was measured.
	if e.ref, err = references(e.workload.name, e.seed, e.jobs, e.nproc); err != nil {
		return nil, err
	}
	for _, s := range sums {
		e.op(e.ref.checkSum(s.label, s.sum))
	}

	res := &result{info: runInfo{
		Workload: e.workload.name,
		Seed:     e.seed,
		Traced:   e.tr != nil,
		Machine:  hostMachine(),
		Rounds:   len(rounds),
		Samples:  map[string]int{},
	}}
	for _, rd := range rounds {
		res.info.RoundWall = append(res.info.RoundWall, rd.wall.Seconds())
	}
	res.info.WallSpread = spread(res.info.RoundWall)
	if total := steal1.total - steal0.total; total > 0 {
		res.info.StealPct = 100 * float64(steal1.steal-steal0.steal) / float64(total)
	}
	var m map[string]metric
	if e.tr == nil {
		res.info.Tails = map[string]float64{}
		m = e2eMetrics(rounds, setups, rss, res.info.Samples, res.info.Tails)
	} else {
		if m, err = e.layerMetrics(rounds, rt0, rt1); err != nil {
			return nil, err
		}
		header := map[string]any{"workload": e.workload.name, "seed": e.seed, "machine": res.info.Machine}
		if err := e.tr.write(traceOut, header); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", k)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	res.info.ErrorRate = float64(e.failed) / float64(max(e.attempted, 1))
	res.line = resultLine{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}
	return res, nil
}

// oneRound sets up a fixture, timing the set-up, and runs it when measure is
// set; tr is nil for an untraced round.
func (e *env) oneRound(tr *tracer, measure bool) (round, float64, error) {
	settle()
	t0 := time.Now()
	fx, err := e.workload.setup(e, tr)
	setup := time.Since(t0).Seconds()
	if err != nil {
		return round{}, 0, fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	if !measure {
		return round{}, setup, nil
	}
	e.round++
	rd, err := fx.run()
	if err != nil {
		return round{}, 0, err
	}
	return rd, setup, nil
}

// e2eMetrics reduces the untraced rounds to the end-to-end metrics. Every
// metric but peak_rss_mb is a median over rounds (over set-ups for
// setup_s); a latency percentile is taken within each round first, so one
// round disturbed by the host moves a tail percentile by one rank at most.
//
// The fetch p99s vary between runs by more than any allowed bound, so they
// are not end-to-end metrics; tails carries them, unbounded, for the run
// information line.
func e2eMetrics(rounds []round, setups []float64, rssMB float64, n map[string]int, tails map[string]float64) map[string]metric {
	overRounds := func(name string, f func(rd round) float64) float64 {
		var xs []float64
		for _, rd := range rounds {
			xs = append(xs, f(rd))
		}
		n[name] = len(xs)
		return median(xs)
	}
	latency := func(name string, p float64, get func(rd round) []time.Duration) float64 {
		var total int
		v := overRounds(name, func(rd round) float64 {
			total += len(get(rd))
			return percentile(ms(get(rd)), p)
		})
		n[name] = total
		return v
	}
	tails["warm_fetch_p99_ms"] = latency("warm_fetch_p99_ms", 99, func(rd round) []time.Duration { return rd.warm })
	tails["restart_fetch_p99_ms"] = latency("restart_fetch_p99_ms", 99, func(rd round) []time.Duration { return rd.restart })
	cold := func(rd round) []time.Duration { return rd.cold }
	warm := func(rd round) []time.Duration { return rd.warm }
	restart := func(rd round) []time.Duration { return rd.restart }
	n["setup_s"] = len(setups)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"wall_s":               {overRounds("wall_s", func(rd round) float64 { return rd.wall.Seconds() }), "s"},
		"sim_kips":             {overRounds("sim_kips", func(rd round) float64 { return float64(rd.instrs) / 1000 / rd.wall.Seconds() }), "kinstr/s"},
		"peak_rss_mb":          {rssMB, "MB"},
		"cold_job_p50_ms":      {latency("cold_job_p50_ms", 50, cold), "ms"},
		"cold_job_p90_ms":      {latency("cold_job_p90_ms", 90, cold), "ms"},
		"warm_fetch_p50_ms":    {latency("warm_fetch_p50_ms", 50, warm), "ms"},
		"restart_fetch_p50_ms": {latency("restart_fetch_p50_ms", 50, restart), "ms"},
		"service_ops_per_s":    {overRounds("service_ops_per_s", func(rd round) float64 { return float64(rd.ops) / rd.elapsed.Seconds() }), "1/s"},
	}
}

// peakRSSMB is the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
	allocObjects    uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjects: s[3].Value.Uint64(),
	}
}

// cpuTicks is the host's cumulative CPU time, in clock ticks: all of it,
// and the part stolen by the hypervisor. It reads zero where /proc/stat is
// missing.
type cpuTicks struct{ total, steal uint64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i >= 8 { // user … steal; guest time is inside user
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// settle collects garbage before a measured phase, so every phase starts
// from the same heap state whatever the phase before it left behind.
func settle() { runtime.GC() }

// mallocs is the process's cumulative heap-object allocation count.
func mallocs() uint64 { return readRuntime().allocObjects }
