package main

import (
	"context"
	"reflect"
	"testing"

	"warpedgates/internal/core"
	"warpedgates/internal/isa"
)

func TestOutputCheckRejectsPerturbedReport(t *testing.T) {
	j := newSimJob("nw", core.WarpedGates, 2, 0.05, 7)
	ref, err := serialReference([]simJob{j}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newLongRunner(2)
	r.Scale = j.scale
	cfg := j.cfg()
	cfg.IntraRunWorkers = 2
	rep, err := r.RunCfgCtx(context.Background(), j.bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(j.label, rep); err != nil {
		t.Fatalf("parallel-engine report rejected: %v", err)
	}
	perturbations := map[string]func(){
		"cycles":       func() { rep.Cycles++ },
		"gated cycles": func() { rep.Domains[isa.FP].GatedCycles++ },
		"l2 misses":    func() { rep.L2Stats[1]++ },
	}
	for name, perturb := range perturbations {
		saved := *rep
		perturb()
		if err := ref.check(j.label, rep); err == nil {
			t.Errorf("check accepted a report with perturbed %s", name)
		}
		*rep = saved
	}
	if err := ref.check("no such job", rep); err == nil {
		t.Error("check accepted a job with no reference")
	}
}

// TestCommittedReferences checks that each committed reference file parses,
// survives a format round trip, and covers exactly the jobs its workload
// runs at the default seed.
func TestCommittedReferences(t *testing.T) {
	for _, w := range workloads {
		ref, err := references(w.name, defaultSeed, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := map[string]bool{}
		for _, j := range w.jobs(defaultSeed) {
			want[j.label] = true
		}
		got := map[string]bool{}
		for label := range ref {
			got[label] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reference covers %d jobs, the workload runs %d distinct ones", w.name, len(got), len(want))
		}
		again, err := parseRef(formatRef(w.name, ref))
		if err != nil || !reflect.DeepEqual(again, ref) {
			t.Errorf("%s: reference does not survive a format round trip: %v", w.name, err)
		}
	}
}

func TestWorkloadSeedSetsTheJobs(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.jobs(defaultSeed), w.jobs(defaultSeed), w.jobs(heldOutSeed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different jobs", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds %d and %d gave the same jobs", w.name, defaultSeed, heldOutSeed)
		}
	}
}
