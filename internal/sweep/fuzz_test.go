package sweep

import (
	"bytes"
	"testing"

	"warpedgates/internal/config"
)

// FuzzDecodeSpec feeds arbitrary bytes through the sweep spec file decoder.
// It must never panic, and for every accepted spec small enough to expand,
// Size must equal the number of cells Expand builds.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"benches":["nw","hotspot"],"techniques":["Baseline","WarpedGates"],"sms":[2,4],"scales":[0.05,0.1]}`,
		`{"benches":["nw","nw"],"seeds":[1,2,1],"idle_detects":[0,5],"break_evens":[1,14],"wakeup_delays":[0,3]}`,
		`{"benches":["hotspot"],"sample_detail":500,"sample_period":2500}`,
		`{"benches":["nosuch"]}`,
		`{"bench":["nw"]}`,
		`{"scales":[1e308,-0,0]}`,
		`{"sms":[1]} trailing`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	base := config.GTX480()
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		n := Size(spec, base)
		if n > 10_000 {
			return
		}
		cells, err := Expand(spec, base)
		if err != nil {
			return
		}
		if len(cells) != n {
			t.Fatalf("spec %q: Size %d, Expand built %d cells", body, n, len(cells))
		}
	})
}

func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec(bytes.NewReader([]byte(`{"bench":["nw"]}`))); err == nil {
		t.Fatal("misspelled axis accepted")
	}
	spec, err := DecodeSpec(bytes.NewReader([]byte(`{"benches":["nw"],"sms":[2,4]}`)))
	if err != nil || len(spec.Benches) != 1 || len(spec.SMs) != 2 {
		t.Fatalf("DecodeSpec = %+v, %v", spec, err)
	}
}
