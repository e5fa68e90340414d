package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/sim"
)

// defaultSeed is the workload seed the committed references were made
// with; heldOutSeed is a seed no tuning looked at, for confirming a claim.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

//go:embed testdata/*.ref
var refFiles embed.FS

// simJob is one simulation a workload asks for. label names it in the
// reference files; the other fields are everything the report depends on.
type simJob struct {
	label string
	bench string
	tech  core.Technique
	sms   int
	scale float64
	seed  uint64 // the simulation's PRNG seed (config.Config.Seed)
}

func newSimJob(bench string, tech core.Technique, sms int, scale float64, seed uint64) simJob {
	return simJob{
		label: fmt.Sprintf("%s %s sms=%d scale=%g seed=%d", bench, tech, sms, scale, seed),
		bench: bench, tech: tech, sms: sms, scale: scale, seed: seed,
	}
}

// cfg is the job's configuration on the default GTX480 machine, for the
// serial engine.
func (j simJob) cfg() config.Config {
	c := j.tech.Apply(config.GTX480())
	c.NumSMs = j.sms
	c.Seed = j.seed
	return c
}

// seedValues draws n simulation seeds from the workload seed.
func seedValues(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// refSet maps a job label to the SHA-256 of its report's fingerprint
// (core.FingerprintReport) as the serial engine produces it.
type refSet map[string]string

func fingerprintSum(rep *sim.Report) string {
	sum := sha256.Sum256([]byte(core.FingerprintReport(rep)))
	return hex.EncodeToString(sum[:])
}

// check reports whether rep is the serial engine's report for the job.
func (r refSet) check(label string, rep *sim.Report) error {
	return r.checkSum(label, fingerprintSum(rep))
}

// checkSum is check on a report's fingerprintSum.
func (r refSet) checkSum(label, got string) error {
	want, ok := r[label]
	if !ok {
		return fmt.Errorf("no reference for %s", label)
	}
	if got != want {
		return fmt.Errorf("%s: report fingerprint %s, serial engine gives %s", label, got[:16], want[:16])
	}
	return nil
}

// references returns the expected fingerprints for jobs: the committed file
// for the default seed, otherwise a fresh serial-engine run.
func references(workload string, seed uint64, jobs []simJob, nproc int) (refSet, error) {
	if seed == defaultSeed {
		data, err := refFiles.ReadFile("testdata/" + workload + ".ref")
		if err != nil {
			return nil, err
		}
		return parseRef(data)
	}
	return serialReference(jobs, nproc)
}

// serialReference simulates every distinct job on the serial engine
// (one goroutine per simulation, static job order, no worker leases), nproc
// jobs at a time.
func serialReference(jobs []simJob, nproc int) (refSet, error) {
	ref := refSet{}
	byScale := map[float64][]simJob{}
	for _, j := range jobs {
		if _, dup := ref[j.label]; !dup {
			ref[j.label] = ""
			byScale[j.scale] = append(byScale[j.scale], j)
		}
	}
	for scale, js := range byScale {
		r := core.NewRunner(config.GTX480())
		r.Scale = scale
		r.Parallelism = nproc
		r.Sched = core.SchedStatic
		batch := make([]core.Job, len(js))
		for i, j := range js {
			c := j.cfg()
			c.IntraRunWorkers = 1
			batch[i] = core.Job{Bench: j.bench, Cfg: c}
		}
		reps, err := r.RunManyCtx(context.Background(), batch)
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		for i, rep := range reps {
			ref[js[i].label] = fingerprintSum(rep)
		}
	}
	return ref, nil
}

// parseRef reads "<sha256> <label>" lines; '#' starts a comment line.
func parseRef(data []byte) (refSet, error) {
	ref := refSet{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, label, ok := strings.Cut(line, " ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("malformed reference line %q", line)
		}
		ref[label] = sum
	}
	return ref, sc.Err()
}

// formatRef renders ref in parseRef's format, sorted by label.
func formatRef(workload string, ref refSet) []byte {
	labels := make([]string, 0, len(ref))
	for l := range ref {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s, workload seed %d: SHA-256 of core.FingerprintReport from the serial engine.\n", workload, defaultSeed)
	fmt.Fprintf(&b, "# Regenerate after an intentional model change: (cd wgbench && go run . --write-ref testdata)\n")
	for _, l := range labels {
		fmt.Fprintf(&b, "%s %s\n", ref[l], l)
	}
	return b.Bytes()
}
