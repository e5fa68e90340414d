package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/serve"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// service-mixed: the HTTP service in process (serve.NewServer, quotas off,
// nproc workers, a fresh store) behind a loopback listener, driven by nproc
// closed-loop clients submitting small jobs. HTTP, queueing, the report
// codec and store I/O do most of the work; each simulation takes about ten
// milliseconds. Warm reads hit the in-memory tier, which encodes the report
// again on every GET; reads after the restart hit the disk tier.
var serviceMixed = &workload{
	name:  "service-mixed",
	jobs:  serviceJobs,
	setup: setupService,
}

const (
	serviceSMs   = 2
	serviceScale = 0.1
	// serviceSeeds simulation seeds are drawn per workload seed; the job mix,
	// which every round submits, is the 18×6 matrix at each of them.
	serviceSeeds = 2
	// After each cold job a client makes warmReads report GETs of random
	// completed jobs and one duplicate POST; after the restart every report
	// is fetched restartPasses times. Both give a round over a thousand
	// fetches, enough for a p99 within the round.
	warmReads     = 5
	restartPasses = 5
	// drainWait bounds a graceful drain; the clients have all finished, so
	// it only guards against a hang.
	drainWait = 30 * time.Second
)

// serviceJobs is the job mix, shuffled by the workload seed.
func serviceJobs(seed uint64) []simJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	var jobs []simJob
	for _, s := range seedValues(rng, serviceSeeds) {
		for _, b := range kernels.BenchmarkNames {
			for _, t := range core.AllTechniques() {
				jobs = append(jobs, newSimJob(b, t, serviceSMs, serviceScale, s))
			}
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// service is one running server and the HTTP client talking to it.
type service struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(e *env, st *store.Store) (*service, error) {
	srv, err := serve.NewServer(serve.Options{
		Base:       config.GTX480(),
		Store:      st,
		Workers:    e.nproc,
		QuotaRate:  -1,
		QuotaBurst: -1,
	})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, ts: httptest.NewServer(srv)}
	// One connection per closed-loop client at most.
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc},
		Timeout:   time.Minute,
	}
	return s, nil
}

// stop drains the server: gracefully when graceful is set, otherwise
// canceling whatever is still running.
func (s *service) stop(graceful bool) error {
	var err error
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		err = s.srv.Drain(ctx)
		cancel()
	} else {
		s.srv.Close()
	}
	s.ts.Close()
	s.client.CloseIdleConnections()
	return err
}

type serviceFixture struct {
	e    *env
	tr   *tracer
	dir  string
	fsys store.FS
	tfs  *timedFS
	st   *store.Store
	svc  *service
	svc2 *service // the server after the restart

	status [6]atomic.Int64 // responses by status class (index = code/100)

	mu        sync.Mutex
	completed []completedJob
	times     []jobTimes
	cold      []time.Duration
	warm      []time.Duration
	reports   map[string]*sim.Report
}

// completedJob is a finished job and the payload of its first fetch.
type completedJob struct {
	id    string
	label string
	body  []byte
	data  []byte
}

func setupService(e *env, tr *tracer) (fixture, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	f := &serviceFixture{e: e, tr: tr, dir: dir, reports: map[string]*sim.Report{}}
	f.st, f.fsys, f.tfs, err = openStore(tr, filepath.Join(dir, "store"))
	if err == nil {
		err = buildKernels(tr, e.jobs)
	}
	if err == nil {
		f.svc, err = startService(e, f.st)
	}
	if err == nil {
		_, _, err = f.do(f.svc, 0, "serve.healthz", http.MethodGet, "/v1/healthz", nil, http.StatusOK)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *serviceFixture) close() {
	for _, s := range []*service{f.svc, f.svc2} {
		if s != nil {
			_ = s.stop(false) // a forced drain reports only that it was forced
		}
	}
	os.RemoveAll(f.dir)
}

// do makes one request and reads the whole response, recording a span
// under parent and counting the status class. A status other than want is
// an error.
func (f *serviceFixture) do(s *service, parent uint64, name, method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	f.tr.record(0, parent, name, t0, t0.Add(d))
	f.count(resp.StatusCode)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, d, err
}

func (f *serviceFixture) count(code int) {
	if c := code / 100; c >= 0 && c < len(f.status) {
		f.status[c].Add(1)
	}
}

// follow reads a job's SSE stream to its end and returns the last state,
// with when the job was first seen past the queue and when it finished.
func (f *serviceFixture) follow(parent uint64, id string) (state serve.State, running, done time.Time, err error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodGet, f.svc.ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", running, done, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := f.svc.client.Do(req)
	if err != nil {
		return "", running, done, err
	}
	defer resp.Body.Close()
	f.count(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return "", running, done, fmt.Errorf("GET /v1/jobs/%s as SSE: status %d", id, resp.StatusCode)
	}
	err = readSSE(resp.Body, func(_, data string) bool {
		var st serve.JobStatus
		if json.Unmarshal([]byte(data), &st) != nil {
			return false
		}
		now := time.Now()
		if st.State != serve.StateQueued && running.IsZero() {
			running = now
		}
		if st.State != state {
			done = now
		}
		state = st.State
		return false
	})
	f.tr.since(parent, "serve.sse", t0)
	return state, running, done, err
}

func (f *serviceFixture) run() (round, error) {
	e := f.e
	var rd round
	settle()
	m0 := mallocs()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		rng := rand.New(rand.NewSource(int64(e.seed) + int64(e.round)*131 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.jobs) {
					return
				}
				f.coldJob(e.jobs[i])
				f.warmReads(rng)
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	rd.mallocs = mallocs() - m0
	sims := f.svc.srv.Simulations()

	// Restart: drain, reopen the store in a new server, fetch every report.
	if err := f.svc.stop(true); err != nil {
		return rd, fmt.Errorf("draining: %w", err)
	}
	st2, err := store.OpenFS(f.fsys, f.st.Dir(), store.DefaultRetry())
	if err != nil {
		return rd, err
	}
	if f.svc2, err = startService(e, st2); err != nil {
		return rd, err
	}
	settle()
	restart := f.restartFetches()
	if n := f.svc2.srv.Simulations(); n != 0 {
		e.op(fmt.Errorf("restarted server simulated %d jobs; every report should come from the store", n))
	}
	if err := f.svc2.stop(true); err != nil {
		return rd, fmt.Errorf("draining after restart: %w", err)
	}
	rd.elapsed = time.Since(start)

	rd.cold, rd.warm, rd.restart = f.cold, f.warm, restart
	rd.ops = len(e.jobs)*(3+warmReads+1) + len(restart)
	rd.reports = f.reports
	for _, rep := range f.reports {
		rd.instrs += rep.IssuedTotal
		rd.cycles += rep.Cycles
	}
	if f.tr != nil {
		e.addCoreLayer(f.tr, f.times, start.Add(rd.wall), e.nproc)
		for _, t := range f.times {
			e.add("serve.queue_wait_ms", float64(t.start.Sub(t.submit))/1e6)
		}
		e.add("core.simulations", float64(sims))
		e.add("serve.simulations", float64(sims+f.svc2.srv.Simulations()))
		for c, name := range map[int]string{2: "serve.status_2xx", 4: "serve.status_4xx", 5: "serve.status_5xx"} {
			e.add(name, float64(f.status[c].Load()))
		}
		e.addStoreLayer(f.tfs, f.st, st2)
	}
	return rd, nil
}

// coldJob submits a job, follows its SSE stream to the end and fetches the
// report.
func (f *serviceFixture) coldJob(j simJob) {
	body, err := json.Marshal(serve.JobRequest{
		Bench: j.bench, Technique: j.tech.String(), SMs: j.sms, Scale: j.scale, Seed: &j.seed,
	})
	if err != nil {
		f.e.op(err)
		return
	}
	id := f.tr.newID()
	t0 := time.Now()
	data, _, err := f.do(f.svc, id, "serve.submit", http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	var st serve.JobStatus
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	var running, done time.Time
	if err == nil {
		var state serve.State
		state, running, done, err = f.follow(id, st.ID)
		if err == nil && state != serve.StateDone {
			err = fmt.Errorf("job %s (%s) ended %s", st.ID, j.label, state)
		}
	}
	if err == nil {
		data, _, err = f.do(f.svc, id, "serve.report_get", http.MethodGet, "/v1/reports/"+st.ID, nil, http.StatusOK)
	}
	d := time.Since(t0)
	f.tr.record(id, 0, "serve.job", t0, t0.Add(d))
	var rep *sim.Report
	if err == nil {
		rep, err = sim.DecodeReport(data)
	}
	f.e.op(err)
	if err != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cold = append(f.cold, d)
	f.times = append(f.times, jobTimes{id: id, submit: t0, start: running, done: done})
	f.completed = append(f.completed, completedJob{id: st.ID, label: j.label, body: body, data: data})
	f.reports[j.label] = rep
}

// warmReads fetches random completed reports, which must match their first
// fetch byte for byte, then submits a completed job again.
func (f *serviceFixture) warmReads(rng *rand.Rand) {
	pick := func() (completedJob, bool) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if len(f.completed) == 0 {
			return completedJob{}, false
		}
		return f.completed[rng.Intn(len(f.completed))], true
	}
	for k := 0; k < warmReads; k++ {
		c, ok := pick()
		if !ok {
			return
		}
		data, d, err := f.do(f.svc, 0, "serve.warm_get", http.MethodGet, "/v1/reports/"+c.id, nil, http.StatusOK)
		if err == nil && !bytes.Equal(data, c.data) {
			err = fmt.Errorf("warm GET of %s differs from its first fetch", c.label)
		}
		f.e.op(err)
		f.mu.Lock()
		f.warm = append(f.warm, d)
		f.mu.Unlock()
	}
	if c, ok := pick(); ok {
		_, _, err := f.do(f.svc, 0, "serve.submit_dup", http.MethodPost, "/v1/jobs", c.body, http.StatusOK)
		f.e.op(err)
	}
}

// restartFetches fetches every completed report restartPasses times from
// the restarted server on nproc clients; each must match its first fetch
// byte for byte.
func (f *serviceFixture) restartFetches() []time.Duration {
	var next atomic.Int64
	var mu sync.Mutex
	var out []time.Duration
	var wg sync.WaitGroup
	for c := 0; c < f.e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= restartPasses*len(f.completed) {
					return
				}
				cj := f.completed[i%len(f.completed)]
				data, d, err := f.do(f.svc2, 0, "serve.restart_get", http.MethodGet, "/v1/reports/"+cj.id, nil, http.StatusOK)
				if err == nil && !bytes.Equal(data, cj.data) {
					err = fmt.Errorf("report %s after restart differs from its first fetch", cj.label)
				}
				f.e.op(err)
				mu.Lock()
				out = append(out, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
