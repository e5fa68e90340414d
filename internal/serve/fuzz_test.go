package serve

import (
	"bytes"
	"testing"
)

// fuzzServer builds one server shared by every input of a fuzz target. The
// targets only call the request builders, so nothing is ever queued; a small
// sweep limit keeps accepted grids cheap to build.
func fuzzServer(f *testing.F) *Server {
	opts := testOptions()
	opts.MaxSweepCells = 256
	s, err := NewServer(opts)
	if err != nil {
		f.Fatalf("NewServer: %v", err)
	}
	f.Cleanup(s.Close)
	return s
}

// FuzzJobRequest feeds arbitrary bodies through the POST /v1/jobs decode and
// build path. It must never panic, and any job it accepts must carry a
// configuration that passes config.Validate.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		smallJob,
		`{"bench":"nw","technique":"Baseline","sms":2,"scale":0.05,"seed":7}`,
		`{"bench":"hotspot","technique":"WarpedGates","idle_detect":3,"break_even":9,"wakeup_delay":2}`,
		`{"bench":"hotspot","technique":"WarpedGates","sample_detail":500,"sample_period":2500}`,
		`{"bench":"hotspot","technique":"WarpedGates","sms":-1,"scale":-2}`,
		`{"bench":"nosuch","technique":"WarpedGates"}`,
		`{"bench":"hotspot","technique":"WarpedGates","max_cycles":7}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		j, err := s.buildJob(&req)
		if err != nil {
			return
		}
		defer j.cancel(nil)
		if err := j.cfg.Validate(); err != nil {
			t.Fatalf("accepted job %q has an invalid config: %v", body, err)
		}
	})
}

// FuzzSweepRequest feeds arbitrary bodies through the POST /v1/sweeps decode
// and build path. It must never panic, and any sweep it accepts must hold at
// most MaxSweepCells cells, each with a valid configuration.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		smallSweep,
		hugeSweep,
		`{"benches":["nw","hotspot"],"techniques":["Baseline"],"sms":[2],"scales":[0.05],"shard_index":1,"shard_count":3}`,
		`{"benches":["hotspot"],"techniques":["WarpedGates"],"sms":[2],"scales":[0.05],"sample_detail":500,"sample_period":2500}`,
		`{"benches":["nw"],"idle_detects":[0,5,-1],"break_evens":[1,14],"wakeup_delays":[0,3]}`,
		`{"benches":["nw"],"shard_index":3,"shard_count":2}`,
		`{"benches":["nosuch"]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		_, jobs, err := s.buildSweep(&req)
		if err != nil {
			return
		}
		for _, j := range jobs {
			j.cancel(nil)
		}
		if len(jobs) > s.opts.MaxSweepCells {
			t.Fatalf("accepted sweep %q has %d cells, limit %d", body, len(jobs), s.opts.MaxSweepCells)
		}
		for _, j := range jobs {
			if err := j.cfg.Validate(); err != nil {
				t.Fatalf("accepted sweep %q has an invalid cell %s: %v", body, j.key, err)
			}
		}
	})
}
