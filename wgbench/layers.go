package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

// jobTimes is one job's life as the benchmark saw it: submitted, taken off
// the queue by a worker, finished. id is the job's span ID.
type jobTimes struct {
	id                  uint64
	submit, start, done time.Time
}

// addCoreLayer records the job scheduler's samples for one batch of jobs
// that ended at end on the given number of job workers, and each job's
// wait and run as spans under its span ID.
func (e *env) addCoreLayer(tr *tracer, jobs []jobTimes, end time.Time, workers int) {
	var runSum float64
	var lastStart, first time.Time
	for _, j := range jobs {
		tr.record(j.id, 0, "core.job", j.submit, j.done)
		tr.record(0, j.id, "core.job_wait", j.submit, j.start)
		tr.record(0, j.id, "core.job_run", j.start, j.done)
		e.add("core.job_wait_ms", float64(j.start.Sub(j.submit))/1e6)
		runSum += j.done.Sub(j.start).Seconds()
		if j.start.After(lastStart) {
			lastStart = j.start
		}
		if first.IsZero() || j.submit.Before(first) {
			first = j.submit
		}
	}
	// A worker first goes idle when it finishes a job after the last job has
	// started: nothing is left for it to take.
	firstIdle := end
	for _, j := range jobs {
		if !j.done.Before(lastStart) && j.done.Before(firstIdle) {
			firstIdle = j.done
		}
	}
	e.add("core.job_run_s_sum", runSum)
	e.add("core.worker_util", runSum/(end.Sub(first).Seconds()*float64(workers)))
	e.add("core.tail_s", end.Sub(firstIdle).Seconds())
}

// steadyCycle records the steady-state cost of one simulated cycle: a busy
// SM under the full proposal, as `warpedgates bench` measures it.
func steadyCycle(e *env) error {
	cfg := core.WarpedGates.Apply(config.GTX480())
	k, err := kernels.Benchmark("hotspot")
	if err != nil {
		return err
	}
	t0 := time.Now()
	ns, allocs, err := sim.MeasureSteadyCycle(cfg, k.Scale(100), 10*16384, 100000)
	e.tr.since(0, "sim.steady_cycle", t0)
	if err != nil {
		return err
	}
	e.add("sim.steady_ns_per_cycle", ns)
	e.add("sim.steady_allocs_per_cycle", allocs)
	return nil
}

// codecRepeats is how many times each report is encoded and decoded.
const codecRepeats = 20

// codecLayer times sim.EncodeReport and sim.DecodeReport on the workload's
// reports.
func (e *env) codecLayer() error {
	labels := sortedLabels(e.reports)
	var size float64
	for _, l := range labels {
		var data []byte
		for i := 0; i < codecRepeats; i++ {
			t0 := time.Now()
			d, err := sim.EncodeReport(e.reports[l])
			e.add("sim.codec_encode_us", float64(time.Since(t0))/1e3)
			if err != nil {
				return err
			}
			data = d
		}
		for i := 0; i < codecRepeats; i++ {
			t0 := time.Now()
			_, err := sim.DecodeReport(data)
			e.add("sim.codec_decode_us", float64(time.Since(t0))/1e3)
			if err != nil {
				return err
			}
		}
		size += float64(len(data))
	}
	e.add("sim.report_kb", size/float64(len(labels))/1024)
	return nil
}

// sortedLabels returns the job labels of reports in order.
func sortedLabels(reports map[string]*sim.Report) []string {
	labels := make([]string, 0, len(reports))
	for l := range reports {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	return labels
}

// modelled sums the simulated machine's counters over the workload's
// reports, one per job. They are exact: a change to the host code leaves
// them identical; a change to the modelled design moves them.
func modelled(reports map[string]*sim.Report) map[string]metric {
	m := map[string]metric{}
	add := func(name, unit string, v uint64) {
		m[name] = metric{m[name].Value + float64(v), unit}
	}
	// Summing in label order keeps the float mean bit-for-bit repeatable.
	var l1 float64
	for _, l := range sortedLabels(reports) {
		r := reports[l]
		add("sim.cycles", "cycles", uint64(r.Cycles))
		add("sim.warp_instrs", "count", r.IssuedTotal)
		l1 += r.L1MissRate
		add("mem.l2_accesses", "count", r.L2Stats[0])
		add("mem.l2_misses", "count", r.L2Stats[1])
		add("mem.dram_requests", "count", r.L2Stats[2])
		add("mem.queue_delay_cycles", "cycles", r.L2Stats[3])
		add("sched.issue_stalls_mem", "cycles", r.IssueStallsMem)
		add("sched.issue_stalls_gate", "cycles", r.IssueStallsGate)
		add("gating.gated_cycles.int", "cycles", r.Domains[isa.INT].GatedCycles)
		add("gating.gated_cycles.fp", "cycles", r.Domains[isa.FP].GatedCycles)
		for _, d := range r.Domains {
			add("gating.events", "count", d.GatingEvents)
			add("gating.critical_wakeups", "count", d.CriticalWakeups)
		}
	}
	m["mem.l1_miss_rate"] = metric{l1 / float64(max(len(reports), 1)), "ratio"}
	return m
}

// layerMetrics assembles the traced run's per-layer metrics. A metric of a
// layer the workload does not exercise reads 0 (README.md lists which).
func (e *env) layerMetrics(rounds []round, rt0, rt1 runtimeStats) (map[string]metric, error) {
	if err := e.codecLayer(); err != nil {
		return nil, err
	}
	if err := steadyCycle(e); err != nil {
		return nil, err
	}
	if e.workload.extras != nil {
		if err := e.workload.extras(e, rounds); err != nil {
			return nil, err
		}
	}
	s := e.samples
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, p)
	}
	var tracedWall, plainWall []float64
	var cycles, plainCycles, plainMallocs float64
	for _, rd := range rounds {
		if rd.traced {
			tracedWall = append(tracedWall, rd.wall.Seconds())
			cycles += float64(rd.cycles)
		} else {
			plainWall = append(plainWall, rd.wall.Seconds())
			plainCycles += float64(rd.cycles)
			plainMallocs += float64(rd.mallocs)
		}
	}
	var runSum float64
	for _, v := range s["core.job_run_s_sum"] {
		runSum += v
	}
	m := map[string]metric{
		"core.job_wait_ms_p50": {pct(s["core.job_wait_ms"], 50), "ms"},
		"core.job_wait_ms_p90": {pct(s["core.job_wait_ms"], 90), "ms"},
		"core.job_run_s_sum":   {pct(s["core.job_run_s_sum"], 50), "s"},
		"core.worker_util":     {pct(s["core.worker_util"], 50), "ratio"},
		"core.tail_s":          {pct(s["core.tail_s"], 50), "s"},
		"core.simulations":     {pct(s["core.simulations"], 50), "count"},

		"kernels.build_ms": {pct(e.tr.durations("kernels.build"), 50), "ms"},

		"sim.ns_per_cycle":             {runSum / cycles * 1e9, "ns"},
		"sim.allocs_per_kcycle":        {plainMallocs / plainCycles * 1000, "count"},
		"sim.steady_ns_per_cycle":      {pct(s["sim.steady_ns_per_cycle"], 50), "ns"},
		"sim.steady_allocs_per_cycle":  {pct(s["sim.steady_allocs_per_cycle"], 50), "count"},
		"sim.intrarun_speedup.hotspot": {pct(s["sim.intrarun_speedup.hotspot"], 50), "ratio"},
		"sim.intrarun_speedup.lbm":     {pct(s["sim.intrarun_speedup.lbm"], 50), "ratio"},
		"sim.codec_encode_us_p50":      {pct(s["sim.codec_encode_us"], 50), "us"},
		"sim.codec_decode_us_p50":      {pct(s["sim.codec_decode_us"], 50), "us"},
		"sim.report_kb":                {pct(s["sim.report_kb"], 50), "KiB"},
		"store.write_ms_p50":           {pct(e.tr.durations("store.write"), 50), "ms"},
		"store.rename_ms_p50":          {pct(e.tr.durations("store.rename"), 50), "ms"},
		"store.read_ms_p50":            {pct(e.tr.durations("store.read"), 50), "ms"},
		"store.bytes_written":          {pct(s["store.bytes_written"], 50), "bytes"},
		"store.bytes_read":             {pct(s["store.bytes_read"], 50), "bytes"},
		"store.retries":                {sum(s["store.retries"]), "count"},
		"store.quarantined":            {sum(s["store.quarantined"]), "count"},
		"serve.submit_ms_p50":          {pct(e.tr.durations("serve.submit"), 50), "ms"},
		"serve.queue_wait_ms_p50":      {pct(s["serve.queue_wait_ms"], 50), "ms"},
		"serve.sse_wait_ms_p50":        {pct(e.tr.durations("serve.sse"), 50), "ms"},
		"serve.report_get_ms_p50":      {pct(e.tr.durations("serve.report_get"), 50), "ms"},
		"serve.status_2xx":             {pct(s["serve.status_2xx"], 50), "count"},
		"serve.status_4xx":             {pct(s["serve.status_4xx"], 50), "count"},
		"serve.status_5xx":             {pct(s["serve.status_5xx"], 50), "count"},
		"serve.simulations":            {pct(s["serve.simulations"], 50), "count"},
		"go.gc_cpu_frac":               {(rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU), "ratio"},
		"go.alloc_mb":                  {float64(rt1.allocBytes-rt0.allocBytes) / 1e6 / float64(len(rounds)), "MB"},
		"trace.overhead_frac":          {median(tracedWall)/median(plainWall) - 1, "ratio"},
	}
	for k, v := range modelled(e.reports) {
		m[k] = v
	}
	return m, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// writeReferences computes every workload's default-seed reference on the
// serial engine and writes it to dir.
func writeReferences(dir string, nproc int) error {
	for _, w := range workloads {
		ref, err := serialReference(w.jobs(defaultSeed), nproc)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, w.name+".ref")
		if err := os.WriteFile(path, formatRef(w.name, ref), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d jobs)\n", path, len(ref))
	}
	return nil
}
