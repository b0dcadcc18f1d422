package index

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// The search-stack benchmarks run on the same ~123-function corpus as
// the server benchmarks (internal/server/bench_test.go) so the numbers
// line up. `go test -bench SnapshotSearch -benchmem ./internal/index/`
// gives quick numbers; TestPruningBenchReport regenerates
// BENCH_pruning.json when run with BENCH_PRUNING_REPORT=path.

var (
	benchOnce sync.Once
	benchDB   *DB
)

// benchCorpusDB builds the large benchmark corpus once per process
// (mirrors the server bigDB configuration).
func benchCorpusDB(tb testing.TB) *DB {
	tb.Helper()
	benchOnce.Do(func() {
		c, err := corpus.Build(corpus.BuildConfig{
			Seed:          11,
			ContextCopies: 4,
			Versions:      3,
			NoiseExes:     6,
			FuncsPerExe:   8,
			TargetStmts:   40,
			FillerStmts:   12,
			Opt:           tinyc.O2,
		})
		if err != nil {
			return
		}
		db := New()
		for _, e := range c.Exes {
			if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
				return
			}
		}
		benchDB = db
	})
	if benchDB == nil {
		tb.Fatal("benchmark corpus failed to build")
	}
	return benchDB
}

func benchQuery(tb testing.TB, db *DB) *prep.Function {
	tb.Helper()
	for _, e := range db.Entries {
		if e.Truth == corpus.LibFuncName {
			return e.fn
		}
	}
	tb.Fatalf("no entry with truth %q", corpus.LibFuncName)
	return nil
}

// BenchmarkSnapshotSearch measures one uncached full-corpus query
// through the snapshot scan path in its three configurations: the old
// exhaustive DP, the default lossless score-bound pruner, and the lossy
// feature prefilter at the default candidate cap.
func BenchmarkSnapshotSearch(b *testing.B) {
	db := benchCorpusDB(b)
	snap := BuildSnapshot(db, []int{3}, 0)
	ref := core.Decompose(benchQuery(b, db), 3)

	for _, bc := range []struct {
		name  string
		prune bool
		pf    PrefilterOptions
	}{
		{"exhaustive", false, PrefilterOptions{}},
		{"pruned", true, PrefilterOptions{}},
		{"prefiltered", true, PrefilterOptions{Enabled: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Prune = bc.prune
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits := mustSearch(b, snap, Query{Ref: ref, Opts: opts, Prefilter: bc.pf})
				if len(hits) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

var pruningReport = os.Getenv("BENCH_PRUNING_REPORT")

// TestPruningBenchReport measures the uncached snapshot-search speedup
// from the score-bound pruner (the headline number: pruned vs
// exhaustive on identical results) and the recall@10 of the lossy
// feature prefilter at several candidate caps, and writes
// BENCH_pruning.json at the path in BENCH_PRUNING_REPORT (skipped
// otherwise, and in -short mode).
func TestPruningBenchReport(t *testing.T) {
	if pruningReport == "" {
		t.Skip("set BENCH_PRUNING_REPORT=path to write the report")
	}
	if testing.Short() {
		t.Skip("timing report; skipped in -short mode")
	}
	db := benchCorpusDB(t)
	snap := BuildSnapshot(db, []int{3}, 0)
	ref := core.Decompose(benchQuery(t, db), 3)

	run := func(prune bool, pf PrefilterOptions) ([]Hit, time.Duration) {
		opts := core.DefaultOptions()
		opts.Prune = prune
		t0 := time.Now()
		hits := mustSearch(t, snap, Query{Ref: ref, Opts: opts, Prefilter: pf})
		return hits, time.Since(t0)
	}
	// Best-of-N wall-clock keeps the report stable on noisy machines.
	best := func(prune bool, pf PrefilterOptions) ([]Hit, time.Duration) {
		hits, min := run(prune, pf)
		for i := 0; i < 4; i++ {
			if _, d := run(prune, pf); d < min {
				min = d
			}
		}
		return hits, min
	}

	exHits, exTime := best(false, PrefilterOptions{})
	prHits, prTime := best(true, PrefilterOptions{})
	if len(exHits) != len(prHits) {
		t.Fatalf("pruned returned %d hits, exhaustive %d", len(prHits), len(exHits))
	}
	for i := range exHits {
		if exHits[i].Entry != prHits[i].Entry || exHits[i].Result.Verdict() != prHits[i].Result.Verdict() {
			t.Fatalf("hit %d differs between pruned and exhaustive", i)
		}
	}
	speedup := float64(exTime) / float64(prTime)

	// recall@10: fraction of the exhaustive top-10 the prefilter keeps.
	top10 := map[*Entry]bool{}
	for _, h := range TopK(exHits, 10, 0) {
		top10[h.Entry] = true
	}
	recall := map[string]any{}
	for _, cap := range []int{5, 10, 25, 50} {
		hits, _ := run(true, PrefilterOptions{Candidates: cap})
		kept := 0
		for _, h := range TopK(hits, 10, 0) {
			if top10[h.Entry] {
				kept++
			}
		}
		recall[fmt.Sprintf("recall_at_10_c%d", cap)] = float64(kept) / float64(len(top10))
	}

	report := map[string]any{
		"benchmark":             fmt.Sprintf("uncached Snapshot.Search, %d-function corpus, k=3, best of 5", db.Len()),
		"corpus_functions":      db.Len(),
		"exhaustive_search_ms":  float64(exTime.Microseconds()) / 1000,
		"pruned_search_ms":      float64(prTime.Microseconds()) / 1000,
		"prune_speedup_x":       speedup,
		"results_bit_identical": true,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
	}
	for k, v := range recall {
		report[k] = v
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pruningReport, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: exhaustive %.1fms, pruned %.1fms (%.1fx)",
		pruningReport, float64(exTime.Microseconds())/1000,
		float64(prTime.Microseconds())/1000, speedup)
	if speedup < 3 {
		t.Errorf("prune speedup %.2fx, want >= 3x", speedup)
	}
}
