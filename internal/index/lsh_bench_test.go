package index

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minhash"
	"repro/internal/tinyc"
)

// BenchmarkSnapshotSearchLSH compares the two candidate generators at an
// equal cap: the O(n) feature-scan ranking against the banded MinHash
// bucket probe. The exact-comparison stage downstream is identical, so
// the delta is pure candidate-generation cost.
func BenchmarkSnapshotSearchLSH(b *testing.B) {
	db := benchCorpusDB(b)
	snap := BuildSnapshot(db, []int{3}, 0)
	ref := core.Decompose(benchQuery(b, db), 3)

	for _, bc := range []struct {
		name string
		mode PrefilterMode
	}{
		{"scan", ModeScan},
		{"lsh", ModeLSH},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			pf := PrefilterOptions{Enabled: true, Candidates: 20, Mode: bc.mode}
			// Pay the lazy signature build before the clock starts.
			mustSearch(b, snap, Query{Ref: ref, Opts: opts, Prefilter: pf})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits := mustSearch(b, snap, Query{Ref: ref, Opts: opts, Prefilter: pf})
				if len(hits) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

var lshReport = os.Getenv("BENCH_LSH_REPORT")

// quantile returns the q-quantile (0..1) of ds by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// TestLSHBenchReport is the experiment behind BENCH_lsh.json: a
// campaign-built corpus (default 20k functions) persisted with LSHB and
// mmap-served, then queried uncached through both candidate generators
// at an equal cap. It records candidate-generation and end-to-end
// search p50/p99 plus recall@10 against the exhaustive ranking, and
// asserts the headline claims: >= 5x faster candidate generation with
// recall@10 >= 0.9. Run with
//
//	BENCH_LSH_REPORT=BENCH_lsh.json go test -run TestLSHBenchReport -timeout 30m ./internal/index/
//
// BENCH_LSH_FUNCS overrides the corpus size.
func TestLSHBenchReport(t *testing.T) {
	if lshReport == "" {
		t.Skip("set BENCH_LSH_REPORT=path to write the report")
	}
	if testing.Short() {
		t.Skip("timing report; skipped in -short mode")
	}
	size := 20_000
	if s := os.Getenv("BENCH_LSH_FUNCS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad BENCH_LSH_FUNCS %q", s)
		}
		size = n
	}
	ccfg := corpus.CampaignConfig{Seed: 7, Funcs: size, FuncsPerExe: 32, Stmts: 10}
	db := New()
	t0 := time.Now()
	total, err := corpus.RunCampaign(ccfg, func(e corpus.Executable, _ tinyc.OptLevel) error {
		return db.AddImage(e.Name, e.Image, e.Truth)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign built %d functions in %.1fs", total, time.Since(t0).Seconds())

	p := minhash.Default
	if s := os.Getenv("BENCH_LSH_PARAMS"); s != "" { // "bands,rows" override for (b,r) tuning sweeps
		if _, err := fmt.Sscanf(s, "%d,%d", &p.Bands, &p.Rows); err != nil || !p.Valid() {
			t.Fatalf("bad BENCH_LSH_PARAMS %q", s)
		}
	}

	path := filepath.Join(t.TempDir(), "lsh.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f, SaveOptions{LSH: &p}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Store().HasLSH() {
		t.Fatal("persisted index carries no LSHB")
	}
	snap := BuildSnapshot(db2, []int{3}, 0)
	opts := core.DefaultOptions()
	ctx := context.Background()

	// Queries spread evenly across the corpus; the same refs drive both
	// generators so the comparison is paired. The candidate cap scales
	// with the corpus (1 in 10 functions, floor 200): a fixed small cap
	// starves recall@10 for BOTH generators once the corpus dwarfs it,
	// which would measure cap starvation rather than generator quality.
	const nQueries, reps = 10, 5
	cap := size / 10
	if cap < 200 {
		cap = 200
	}
	var refs []*core.Decomposed
	for i := 0; i < nQueries; i++ {
		e := db2.Entries[i*db2.Len()/nQueries]
		refs = append(refs, core.Decompose(mustDecode(t, e), 3))
	}

	// Ground truth per query: the exhaustive full-scan 10th-best score.
	// The generated corpus is full of score ties, so recall@10 is
	// tie-aware — a prefiltered hit counts when it scores at least as
	// well as the exhaustive rank-10 hit, the same verdict exhaustive
	// search itself would have tie-broken arbitrarily.
	tenth := make([]float64, len(refs))
	for i, ref := range refs {
		top := mustSearch(t, snap, Query{Ref: ref, Opts: opts, Limit: 10})
		if len(top) < 10 {
			t.Fatalf("query %d: exhaustive search returned only %d hits", i, len(top))
		}
		tenth[i] = top[len(top)-1].Result.SimilarityScore
	}

	type sample struct {
		gen    []time.Duration // candidate generation only
		search []time.Duration // full two-stage search
		recall float64
	}
	measure := func(mode PrefilterMode) sample {
		var s sample
		pf := PrefilterOptions{Enabled: true, Candidates: cap, Mode: mode}
		kept, want := 0, 0
		for qi, ref := range refs {
			for r := 0; r < reps; r++ {
				g0 := time.Now()
				if _, err := snap.PrefilterRankWith(ctx, ref, cap, mode); err != nil {
					t.Fatal(err)
				}
				s.gen = append(s.gen, time.Since(g0))
				s0 := time.Now()
				hits := mustSearch(t, snap, Query{Ref: ref, Opts: opts, Prefilter: pf})
				s.search = append(s.search, time.Since(s0))
				if r == 0 {
					for _, h := range TopK(hits, 10, 0) {
						if h.Result.SimilarityScore >= tenth[qi] {
							kept++
						}
					}
					want += 10
				}
			}
		}
		s.recall = float64(kept) / float64(want)
		return s
	}

	// One throwaway pass pays the lazy signature adoption and page-ins.
	if _, err := snap.PrefilterRankWith(ctx, refs[0], cap, ModeLSH); err != nil {
		t.Fatal(err)
	}
	scan := measure(ModeScan)
	lsh := measure(ModeLSH)

	genSpeedup := float64(quantile(scan.gen, 0.5)) / float64(quantile(lsh.gen, 0.5))
	searchSpeedup := float64(quantile(scan.search, 0.5)) / float64(quantile(lsh.search, 0.5))
	report := map[string]any{
		"benchmark":            fmt.Sprintf("uncached candidate generation + search, scan vs lsh, cap %d, %d queries x %d reps", cap, nQueries, reps),
		"corpus_functions":     db2.Len(),
		"lsh_bands":            p.Bands,
		"lsh_rows":             p.Rows,
		"candidate_cap":        cap,
		"scan_gen_p50_ms":      ms(quantile(scan.gen, 0.5)),
		"scan_gen_p99_ms":      ms(quantile(scan.gen, 0.99)),
		"lsh_gen_p50_ms":       ms(quantile(lsh.gen, 0.5)),
		"lsh_gen_p99_ms":       ms(quantile(lsh.gen, 0.99)),
		"gen_speedup_p50_x":    genSpeedup,
		"scan_search_p50_ms":   ms(quantile(scan.search, 0.5)),
		"scan_search_p99_ms":   ms(quantile(scan.search, 0.99)),
		"lsh_search_p50_ms":    ms(quantile(lsh.search, 0.5)),
		"lsh_search_p99_ms":    ms(quantile(lsh.search, 0.99)),
		"search_speedup_p50_x": searchSpeedup,
		"scan_recall_at_10":    scan.recall,
		"lsh_recall_at_10":     lsh.recall,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lshReport, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: gen p50 scan %.2fms vs lsh %.2fms (%.1fx), search p50 %.1fms vs %.1fms (%.1fx), recall@10 scan %.2f lsh %.2f",
		lshReport, ms(quantile(scan.gen, 0.5)), ms(quantile(lsh.gen, 0.5)), genSpeedup,
		ms(quantile(scan.search, 0.5)), ms(quantile(lsh.search, 0.5)), searchSpeedup,
		scan.recall, lsh.recall)
	if genSpeedup < 5 {
		t.Errorf("lsh candidate generation only %.1fx faster than scan at p50, want >= 5x", genSpeedup)
	}
	if lsh.recall < 0.9 {
		t.Errorf("lsh recall@10 = %.2f, want >= 0.9", lsh.recall)
	}
}
