package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// paper-matrix: every paper benchmark under every technique on the default
// 15-SM GTX480, through Runner.RunManyCtx on a fresh store-backed runner —
// the path behind `warpedgates figure -store`. The serial SM loop, idle
// fast-forward, the cost-model job order and tail worker leases do nearly
// all the work; the store writes one small entry per cell.
//
// The scale is 0.25 rather than the paper's 1.0 so that a round takes about
// ten seconds on two cores and a run holds more than one.
var paperMatrix = &workload{
	name:  "paper-matrix",
	jobs:  matrixJobs,
	setup: setupMatrix,
}

const (
	matrixSMs   = 15
	matrixScale = 0.1
	// matrixFetches is how many warm and how many restart fetches a round
	// makes, enough for a p99 within the round.
	matrixFetches = 1080
)

// matrixJobs is the 18×6 matrix at one simulation seed, in an order shuffled
// by the workload seed.
func matrixJobs(seed uint64) []simJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	simSeed := seedValues(rng, 1)[0]
	var jobs []simJob
	for _, b := range kernels.BenchmarkNames {
		for _, t := range core.AllTechniques() {
			jobs = append(jobs, newSimJob(b, t, matrixSMs, matrixScale, simSeed))
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

type matrixFixture struct {
	e     *env
	tr    *tracer
	dir   string
	fsys  store.FS
	tfs   *timedFS // nil when untraced
	st    *store.Store
	r     *core.Runner
	batch []core.Job
	keys  []string // canonical job keys, the store's keys

	mu      sync.Mutex
	started map[string]time.Time // job key → Progress call
	done    map[string]time.Time // job key → Instrument finish callback
}

// openStore opens a store at dir, through a timing wrapper when traced.
func openStore(tr *tracer, dir string) (*store.Store, store.FS, *timedFS, error) {
	var fsys store.FS = store.OSFS{}
	var tfs *timedFS
	if tr != nil {
		tfs = &timedFS{inner: store.OSFS{}, tr: tr}
		fsys = tfs
	}
	st, err := store.OpenFS(fsys, dir, store.DefaultRetry())
	return st, fsys, tfs, err
}

// buildKernels builds every kernel the jobs use, as the set-up's check that
// the job list names real benchmarks.
func buildKernels(tr *tracer, jobs []simJob) error {
	t0 := time.Now()
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.bench] {
			continue
		}
		seen[j.bench] = true
		k, err := kernels.Benchmark(j.bench)
		if err != nil {
			return err
		}
		k.Scale(j.scale)
	}
	tr.since(0, "kernels.build", t0)
	return nil
}

func setupMatrix(e *env, tr *tracer) (fixture, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	f := &matrixFixture{e: e, tr: tr, dir: dir, started: map[string]time.Time{}, done: map[string]time.Time{}}
	f.st, f.fsys, f.tfs, err = openStore(tr, filepath.Join(dir, "store"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := buildKernels(tr, e.jobs); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.r = core.NewRunner(config.GTX480())
	f.r.Scale = matrixScale
	f.r.Parallelism = e.nproc
	f.r.Store = f.st
	for _, j := range e.jobs {
		cfg := j.cfg()
		f.batch = append(f.batch, core.Job{Bench: j.bench, Cfg: cfg})
		f.keys = append(f.keys, core.JobKey(j.bench, cfg, matrixScale))
	}
	// A job's latency runs from the Progress call, where a worker takes it,
	// to the Instrument finish callback, where its report exists.
	f.r.Progress = func(bench string, cfg config.Config) {
		f.stamp(f.started, core.JobKey(bench, cfg, matrixScale))
	}
	f.r.Instrument = func(bench string, cfg config.Config, _ *kernels.Kernel, _ *sim.GPU) func(*sim.Report) error {
		key := core.JobKey(bench, cfg, matrixScale)
		return func(*sim.Report) error {
			f.stamp(f.done, key)
			return nil
		}
	}
	return f, nil
}

func (f *matrixFixture) stamp(m map[string]time.Time, key string) {
	now := time.Now()
	f.mu.Lock()
	m[key] = now
	f.mu.Unlock()
}

func (f *matrixFixture) close() { os.RemoveAll(f.dir) }

func (f *matrixFixture) run() (round, error) {
	e := f.e
	var rd round
	settle()
	m0 := mallocs()
	start := time.Now()
	reps, err := f.r.RunManyCtx(context.Background(), f.batch)
	rd.wall = time.Since(start)
	rd.mallocs = mallocs() - m0
	if err != nil {
		return rd, fmt.Errorf("paper-matrix: %w", err)
	}
	rd.reports = map[string]*sim.Report{}
	var want [][]byte
	for i, rep := range reps {
		e.op(nil)
		label := e.jobs[i].label
		rd.reports[label] = rep
		rd.instrs += rep.IssuedTotal
		rd.cycles += rep.Cycles
		rd.cold = append(rd.cold, f.done[f.keys[i]].Sub(f.started[f.keys[i]]))
		data, err := sim.EncodeReport(rep)
		if err != nil {
			return rd, err
		}
		want = append(want, data)
	}
	if f.tr != nil {
		var times []jobTimes
		for _, key := range f.keys {
			times = append(times, jobTimes{id: f.tr.newID(), submit: start, start: f.started[key], done: f.done[key]})
		}
		e.addCoreLayer(f.tr, times, start.Add(rd.wall), e.nproc)
		e.add("core.simulations", float64(len(f.started)))
	}
	one := func() []int { return []int{e.rng.Intn(len(f.keys))} }
	restarted, err := fetchPhases(e, f.tr, f.r, f.fsys, f.st.Dir(), f.keys, want, matrixFetches, one, &rd)
	if err != nil {
		return rd, err
	}
	rd.elapsed = time.Since(start)
	rd.ops += len(reps)
	if f.tfs != nil {
		e.addStoreLayer(f.tfs, f.st, restarted)
	}
	return rd, nil
}

// fetchPhases fetches a finished batch's reports again, n times each way:
// first warm, from the runner's in-memory tier (CachedReport then
// EncodeReport, what the service's report endpoint does for a resident
// report), then after a restart, from a store freshly opened on dir, which
// it returns. pick chooses the jobs one fetch gets; its latency is one
// sample. Every payload must equal want, the report's first encoding.
func fetchPhases(e *env, tr *tracer, r *core.Runner, fsys store.FS, dir string, keys []string, want [][]byte, n int, pick func() []int, rd *round) (*store.Store, error) {
	warm := func(i int) error {
		rep, ok := r.CachedReport(keys[i])
		if !ok {
			return fmt.Errorf("warm fetch: %s not resident", keys[i])
		}
		data, err := sim.EncodeReport(rep)
		if err == nil && !bytes.Equal(data, want[i]) {
			err = fmt.Errorf("warm fetch: %s payload differs from its first encoding", keys[i])
		}
		return err
	}
	st, err := store.OpenFS(fsys, dir, store.DefaultRetry())
	if err != nil {
		return nil, err
	}
	restart := func(i int) error {
		data, ok, err := st.Get(keys[i])
		switch {
		case err != nil:
		case !ok:
			err = fmt.Errorf("restart fetch: %s missing from the store", keys[i])
		case !bytes.Equal(data, want[i]):
			err = fmt.Errorf("restart fetch: %s payload differs from its first fetch", keys[i])
		}
		return err
	}
	phase := func(name string, get func(int) error) []time.Duration {
		settle()
		var out []time.Duration
		for k := 0; k < n; k++ {
			var errs []error
			t0 := time.Now()
			for _, i := range pick() {
				errs = append(errs, get(i))
			}
			d := time.Since(t0)
			tr.record(0, 0, name, t0, t0.Add(d))
			for _, err := range errs {
				e.op(err)
			}
			rd.ops += len(errs)
			out = append(out, d)
		}
		return out
	}
	rd.warm = phase("fetch.warm", warm)
	rd.restart = phase("fetch.restart", restart)
	return st, nil
}

// addStoreLayer records one round's store counters: the bytes through the
// timing wrapper and the health counters of every store opened on it.
func (e *env) addStoreLayer(tfs *timedFS, stores ...*store.Store) {
	var retries, quarantined uint64
	for _, st := range stores {
		h := st.Health()
		retries += h.Retries
		quarantined += h.Quarantined
	}
	e.add("store.bytes_written", float64(tfs.written.Load()))
	e.add("store.bytes_read", float64(tfs.read.Load()))
	e.add("store.retries", float64(retries))
	e.add("store.quarantined", float64(quarantined))
}
