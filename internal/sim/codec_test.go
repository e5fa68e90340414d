package sim

import (
	"bytes"
	"reflect"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// runSmall produces a real report with non-trivial counters and histograms.
func runSmall(t testing.TB) *Report {
	t.Helper()
	gpu, err := NewGPU(config.Small(), kernels.MustBenchmark("hotspot").Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return gpu.Run()
}

// TestReportCodecRoundtrip: every field the fingerprints and the power model
// read survives encode→decode, including the per-domain idle histograms.
func TestReportCodecRoundtrip(t *testing.T) {
	rep := runSmall(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("EncodeReport: %v", err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if got.Cycles != rep.Cycles || got.IssuedTotal != rep.IssuedTotal ||
		got.RanOut != rep.RanOut || got.ActiveWarpAvg != rep.ActiveWarpAvg ||
		got.L1MissRate != rep.L1MissRate {
		t.Fatalf("scalar fields drifted through the codec:\n got  %+v\n want %+v", got, rep)
	}
	for _, c := range []isa.Class{isa.INT, isa.FP, isa.SFU, isa.LDST} {
		d, w := got.Domains[c], rep.Domains[c]
		if d.IdleCycles != w.IdleCycles || d.GatingEvents != w.GatingEvents ||
			d.Wakeups != w.Wakeups || d.CriticalWakeups != w.CriticalWakeups {
			t.Fatalf("domain %s drifted: got %+v want %+v", c, d, w)
		}
		if d.IdlePeriods == nil {
			t.Fatalf("domain %s decoded with nil IdlePeriods", c)
		}
		if !d.IdlePeriods.Equal(w.IdlePeriods) {
			t.Fatalf("domain %s idle-period histogram drifted through the codec", c)
		}
	}
	// Determinism: encoding is byte-stable, the property the content-addressed
	// store relies on for its "cached equals fresh" guarantee.
	again, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("EncodeReport is not byte-deterministic for the same report")
	}
}

// TestReportCodecRejectsForeignVersion: a payload from a future (or corrupt)
// codec version must fail decode — the runner then treats it as a store miss
// rather than serving misinterpreted bytes.
func TestReportCodecRejectsForeignVersion(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"version": 999, "report": {}}`)); err == nil {
		t.Fatal("foreign codec version accepted")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeReport(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// FuzzDecodeReport feeds arbitrary bytes to the store payload decoder. It
// must never panic, and whatever it accepts must survive the codec: the
// decoded report re-encodes, that encoding decodes to an equal report, and
// encoding that report again reproduces the same bytes.
func FuzzDecodeReport(f *testing.F) {
	data, err := EncodeReport(runSmall(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version": 1, "report": {}}`))
	f.Add([]byte(`{"version": 1, "report": {"Domains": [{"IdlePeriods": {"values": [3, 7], "counts": [2, 1]}}]}}`))
	// A value listed twice whose counts sum past 2^64 once decoded to a zero
	// count, which the decoder itself rejects on the way back in.
	f.Add([]byte(`{"version": 1, "report": {"Domains": [{"IdlePeriods": {"values": [1, 1], "counts": [18446744073709551615, 1]}}]}}`))
	f.Add([]byte(`{"version": 999, "report": {}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc, err := EncodeReport(r)
		if err != nil {
			t.Fatalf("decoded report does not re-encode: %v", err)
		}
		r2, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("report changed through re-encode:\n got  %+v\n want %+v", r2, r)
		}
		again, err := EncodeReport(r2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}
