package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// long-run-parallel: two long single simulations on the 15-SM GTX480 at
// scale 1.0 under WarpedGates — hotspot (compute-bound) then lbm
// (memory-bound, so serial memory arbitration matters) — each through
// Runner.RunCfgCtx on a fresh store-less runner with nproc intra-run
// workers. The phase-split engine does all the work: barrier, bank-sharded
// resolve, shard stealing. The job scheduler and the store do none during
// the simulations; the reports go to a store only afterwards, for the
// restart fetches.
var longRunParallel = &workload{
	name:   "long-run-parallel",
	jobs:   longJobs,
	setup:  setupLong,
	extras: longExtras,
}

const (
	longSMs   = 15
	longScale = 1.0
	// longFetches is how many warm and how many restart fetches of both
	// reports a round makes, enough for a p99 within the round.
	longFetches = 1024
)

var longBenches = []string{"hotspot", "lbm"}

func longJobs(seed uint64) []simJob {
	simSeed := seedValues(rand.New(rand.NewSource(int64(seed))), 1)[0]
	var jobs []simJob
	for _, b := range longBenches {
		jobs = append(jobs, newSimJob(b, core.WarpedGates, longSMs, longScale, simSeed))
	}
	return jobs
}

type longFixture struct {
	e    *env
	tr   *tracer
	dir  string
	fsys store.FS
	tfs  *timedFS
	st   *store.Store
	r    *core.Runner
	cfgs []config.Config
	keys []string

	started time.Time // the current job's Progress call
}

// newLongRunner is a store-less runner whose simulations run on workers
// intra-run workers.
func newLongRunner(workers int) *core.Runner {
	base := config.GTX480()
	base.IntraRunWorkers = workers
	r := core.NewRunner(base)
	r.Scale = longScale
	return r
}

func setupLong(e *env, tr *tracer) (fixture, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	f := &longFixture{e: e, tr: tr, dir: dir}
	f.st, f.fsys, f.tfs, err = openStore(tr, filepath.Join(dir, "store"))
	if err == nil {
		err = buildKernels(tr, e.jobs)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.r = newLongRunner(e.nproc)
	for _, j := range e.jobs {
		cfg := j.cfg()
		cfg.IntraRunWorkers = e.nproc
		f.cfgs = append(f.cfgs, cfg)
		f.keys = append(f.keys, core.JobKey(j.bench, cfg, longScale))
	}
	if tr != nil {
		f.r.Progress = func(string, config.Config) { f.started = time.Now() }
	}
	return f, nil
}

func (f *longFixture) close() { os.RemoveAll(f.dir) }

func (f *longFixture) run() (round, error) {
	e := f.e
	rd := round{reports: map[string]*sim.Report{}}
	var want [][]byte
	var times []jobTimes
	settle()
	m0 := mallocs()
	start := time.Now()
	for i, j := range e.jobs {
		t0 := time.Now()
		rep, err := f.r.RunCfgCtx(context.Background(), j.bench, f.cfgs[i])
		d := time.Since(t0)
		e.op(err)
		if err != nil {
			return rd, fmt.Errorf("long-run-parallel: %w", err)
		}
		rd.cold = append(rd.cold, d)
		times = append(times, jobTimes{id: f.tr.newID(), submit: t0, start: f.started, done: t0.Add(d)})
		rd.reports[j.label] = rep
		rd.instrs += rep.IssuedTotal
		rd.cycles += rep.Cycles
	}
	rd.wall = time.Since(start)
	rd.mallocs = mallocs() - m0
	for i, j := range e.jobs {
		data, err := sim.EncodeReport(rd.reports[j.label])
		if err == nil {
			err = f.st.Put(f.keys[i], data)
		}
		if err != nil {
			return rd, err
		}
		want = append(want, data)
	}
	if f.tr != nil {
		// The jobs run one after another on the caller's goroutine: one job
		// worker.
		e.addCoreLayer(f.tr, times, start.Add(rd.wall), 1)
		e.add("core.simulations", float64(len(e.jobs)))
	}
	// A fetch gets both reports: lbm's is nearly twice hotspot's, so the
	// median single-report fetch would fall in the gap between the two and
	// jump from one to the other with the random pattern.
	both := func() []int { return []int{0, 1} }
	restarted, err := fetchPhases(e, f.tr, f.r, f.fsys, f.st.Dir(), f.keys, want, longFetches, both, &rd)
	if err != nil {
		return rd, err
	}
	rd.elapsed = time.Since(start)
	rd.ops += len(e.jobs)
	if f.tfs != nil {
		e.addStoreLayer(f.tfs, f.st, restarted)
	}
	return rd, nil
}

// longExtras measures the intra-run speedup: each job rerun on the serial
// engine, against the median nproc-worker time of the untraced rounds.
func longExtras(e *env, rounds []round) error {
	for i, j := range e.jobs {
		var par []float64
		for _, rd := range rounds {
			if !rd.traced {
				par = append(par, rd.cold[i].Seconds())
			}
		}
		cfg := j.cfg()
		cfg.IntraRunWorkers = 1
		r := newLongRunner(1)
		t0 := time.Now()
		rep, err := r.RunCfgCtx(context.Background(), j.bench, cfg)
		serial := time.Since(t0)
		e.tr.since(0, "sim.serial_rerun", t0)
		if err != nil {
			return err
		}
		e.op(e.ref.check(j.label, rep))
		e.add("sim.intrarun_speedup."+j.bench, serial.Seconds()/median(par))
	}
	return nil
}
