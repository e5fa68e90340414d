package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// Regenerate the corpus after an intentional model change with:
//
//	go test ./internal/core -run GoldenMatrix -update
//
// (The flag lives only in this package, so pass the package path explicitly —
// `go test ./... -update` would fail unrelated test binaries.)
var updateGolden = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const goldenMatrixPath = "testdata/golden_matrix.txt"

// goldenMatrixScale keeps corpus regeneration and drift checks to a couple
// of seconds while still covering every benchmark and technique.
const goldenMatrixScale = 0.1

const goldenHeader = `# Golden corpus: fingerprint of every benchmark x technique cell at
# config.Small() scale ` + "0.1" + `. One line per cell: bench technique counters.
# Regenerate after an intentional model change:
#   go test ./internal/core -run GoldenMatrix -update
`

// goldenRunner builds the corpus runner; par is the worker bound (0 = cores).
func goldenRunner(par int) *Runner {
	r := NewRunner(config.Small())
	r.Scale = goldenMatrixScale
	r.Parallelism = par
	return r
}

// goldenCorpus renders the full corpus file content for runner r.
func goldenCorpus(r *Runner) (string, error) {
	body, err := MatrixFingerprint(r, kernels.BenchmarkNames, AllTechniques())
	if err != nil {
		return "", err
	}
	return goldenHeader + body, nil
}

// TestGoldenMatrixCorpus pins the complete 18-benchmark × 6-technique matrix
// against the committed corpus, line by line. Any behavioural drift in the
// simulator — scheduling, gating, memory, even a float rounding change —
// shows up as a named (bench, technique) diff here.
func TestGoldenMatrixCorpus(t *testing.T) {
	got, err := goldenCorpus(goldenRunner(0))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenMatrixPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMatrixPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenMatrixPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenMatrixPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/core -run GoldenMatrix -update)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("corpus has %d lines, committed file has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] == wantLines[i] {
			continue
		}
		diffs++
		if diffs <= 5 {
			t.Errorf("line %d drifted:\n  got:  %s\n  want: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden corpus drift: %d line(s) differ (intentional change? regenerate with: go test ./internal/core -run GoldenMatrix -update)", diffs)
}

// TestGoldenMatrixParallelismStable is the byte-stability acceptance check:
// a -j 1 and a -j 8 runner render the identical corpus. Fresh runners on both
// sides, so nothing is served from a shared cache.
func TestGoldenMatrixParallelismStable(t *testing.T) {
	if testing.Short() {
		t.Skip("serial full matrix is slow; skipped with -short")
	}
	serial, err := goldenCorpus(goldenRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := goldenCorpus(goldenRunner(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("corpus not byte-stable across -j 1 vs -j 8; first diff at line %d:\n  -j 1: %s\n  -j 8: %s",
					i+1, sl[i], pl[i])
			}
		}
		t.Fatal("corpus not byte-stable across -j 1 vs -j 8 (length mismatch)")
	}
}

// engineTune is one set of exact-engine knobs; none of them may change a
// result.
type engineTune struct {
	workers, batch int
}

// goldenEngineRunner builds a fresh corpus runner over base, so nothing is
// served from another runner's cache.
func goldenEngineRunner(base config.Config) *Runner {
	r := NewRunner(base)
	r.Scale = goldenMatrixScale
	return r
}

// checkCorpusEngineStable renders the full corpus on base with the serial
// engine and again at every tune, and fails on the first line that differs.
func checkCorpusEngineStable(t *testing.T, base config.Config, tunes []engineTune) {
	t.Helper()
	base.IntraRunWorkers = 1
	serial, err := goldenCorpus(goldenEngineRunner(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, tune := range tunes {
		cfg := base
		cfg.IntraRunWorkers, cfg.BatchCycles = tune.workers, tune.batch
		par, err := goldenCorpus(goldenEngineRunner(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if serial == par {
			continue
		}
		sl, pl := strings.Split(serial, "\n"), strings.Split(par, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("corpus not byte-stable across serial vs %+v; first diff at line %d:\n  serial:   %s\n  parallel: %s",
					tune, i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("corpus not byte-stable across serial vs %+v: length mismatch", tune)
	}
}

// TestGoldenMatrixIntraRunWorkersStable is the engine's byte-stability
// acceptance check: the full 108-cell corpus is byte-identical between the
// serial engine and the phase-split parallel engine. It runs on config.Small
// at workers ∈ {4, NumSMs}, and on the paper's default GTX480 machine at workers ∈ {2, 15} and with a short
// batch — the default machine's 15 SMs and deeper memory pipeline exercise
// parking and resolve orders Small never reaches. IntraRunWorkers and
// BatchCycles are excluded from the cache key precisely because of this
// equivalence.
func TestGoldenMatrixIntraRunWorkersStable(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated full matrices are slow; skipped with -short")
	}
	t.Run("Small", func(t *testing.T) {
		// Workers beyond NumSMs (Small has 2) clamp to NumSMs, so 4 also
		// exercises the clamp; 2 is the one-SM-per-worker split.
		base := config.Small()
		checkCorpusEngineStable(t, base, []engineTune{{workers: 4}, {workers: base.NumSMs}})
	})
	t.Run("GTX480", func(t *testing.T) {
		checkCorpusEngineStable(t, config.GTX480(), []engineTune{
			{workers: 2}, {workers: 15}, {workers: 3, batch: 32},
		})
	})
}
