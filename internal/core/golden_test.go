package core_test

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the tests run from the current matcher")

const (
	goldenPath       = "testdata/compare_golden.txt.gz"
	prunedWorkGolden = "testdata/pruned_work_golden.txt.gz"
)

// goldenCorpus compiles the fixed-seed campaign the golden file was
// recorded on and decomposes every function of it at k=3.
func goldenCorpus(tb testing.TB) []*core.Decomposed {
	tb.Helper()
	var ds []*core.Decomposed
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1811, Funcs: 192, FuncsPerExe: 16, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			if err != nil {
				return err
			}
			for _, fn := range fns {
				d := core.Decompose(fn, 3)
				d.Name = e.Name + "/" + fn.Name
				ds = append(ds, d)
			}
			return nil
		})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// goldenQueries picks n functions spread evenly over the size ranking, so
// one-tracelet stubs and the largest bodies are both queried.
func goldenQueries(ds []*core.Decomposed, n int) []int {
	idx := make([]int, 0, len(ds))
	for i, d := range ds {
		if len(d.Tracelets) > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return ds[idx[a]].NumInsts < ds[idx[b]].NumInsts })
	out := make([]int, n)
	for i := range out {
		out[i] = idx[i*(len(idx)-1)/(n-1)]
	}
	return out
}

// goldenRun compares every golden query with every function of the corpus
// under DefaultOptions, the pruner on or off, and returns the Results in
// (query, target) order with the collector that counted the run.
func goldenRun(ds []*core.Decomposed, queries []int, prune bool) ([]core.Result, *telemetry.Collector) {
	opts := core.DefaultOptions()
	opts.Prune = prune
	opts.Tel = telemetry.New()
	m := core.NewMatcher(opts)
	out := make([]core.Result, 0, len(queries)*len(ds))
	for _, q := range queries {
		for _, tgt := range ds {
			out = append(out, m.Compare(ds[q], tgt))
		}
	}
	return out, opts.Tel
}

// renderGolden renders the corpus and the unpruned run over it: every
// Result field but PairsPruned (zero without the pruner), then the rewrite
// and solver counters of the run.
func renderGolden(ds []*core.Decomposed, queries []int, rs []core.Result, tel *telemetry.Collector) []byte {
	var b bytes.Buffer
	for i, d := range ds {
		fmt.Fprintf(&b, "func %d %s insts=%d tracelets=%d\n", i, d.Name, d.NumInsts, len(d.Tracelets))
	}
	b.WriteString("run prune=false\n")
	for i, r := range rs {
		fmt.Fprintf(&b, "%d %d %s %.17g %t %d %d %d %d %d %t\n", queries[i/len(ds)], i%len(ds), r.Name, r.SimilarityScore, r.IsMatch,
			r.RefTracelets, r.MatchedDirect, r.MatchedRewrite, r.PairsCompared, r.PairsRewritten, r.Truncated)
	}
	for _, c := range []telemetry.Counter{telemetry.RewritesAttempted, telemetry.RewritesSkipped, telemetry.RewritesSucceeded,
		telemetry.CSPSolves, telemetry.CSPBacktracks, telemetry.CSPBudgetExhausted} {
		fmt.Fprintf(&b, "total %s %d\n", c, tel.Get(c))
	}
	return b.Bytes()
}

// TestCompareGolden pins the matcher's answers to the file recorded before
// the packed compare core replaced the string-based one: an oracle that
// shares no code with the matcher under test, unlike prune parity and the
// serial difftest oracle, which run the same rewrite on both sides.
//
// The file holds the unpruned run. The pruned run is held to it by the
// pruner's contract: the same verdict for every pair, the same rewrites
// succeeding, and never more work — pairs reaching the rewrite stage,
// constraint solves — than without it.
func TestCompareGolden(t *testing.T) {
	ds := goldenCorpus(t)
	queries := goldenQueries(ds, 24)
	exact, exactTel := goldenRun(ds, queries, false)
	pruned, prunedTel := goldenRun(ds, queries, true)
	for i, p := range pruned {
		if e := exact[i]; p.Verdict() != e.Verdict() || p.PairsRewritten > e.PairsRewritten {
			t.Fatalf("query %d vs %s: pruned %+v, exhaustive %+v", queries[i/len(ds)], p.Name, p, e)
		}
	}
	if p, e := prunedTel.Get(telemetry.RewritesSucceeded), exactTel.Get(telemetry.RewritesSucceeded); p != e {
		t.Errorf("rewrites_succeeded: pruned %d, exhaustive %d", p, e)
	}
	for _, c := range []telemetry.Counter{telemetry.RewritesAttempted, telemetry.CSPSolves} {
		if p, e := prunedTel.Get(c), exactTel.Get(c); p > e {
			t.Errorf("%s: pruned %d exceeds exhaustive %d", c, p, e)
		}
	}
	checkGolden(t, goldenPath, renderGolden(ds, queries, exact, exactTel))
}

// renderPrunedWork renders what the pruned run cost: per Result the pairs
// it visited, took to the rewrite stage and cut, then the run's totals of
// every counter the cascade, the block cache, the rewrite engine and the
// solver keep.
func renderPrunedWork(ds []*core.Decomposed, queries []int, rs []core.Result, tel *telemetry.Collector) []byte {
	var b bytes.Buffer
	b.WriteString("run prune=true\n")
	for i, r := range rs {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", queries[i/len(ds)], i%len(ds), r.PairsCompared, r.PairsRewritten, r.PairsPruned)
	}
	for _, c := range []telemetry.Counter{telemetry.PairsCompared, telemetry.PairsPrunedBound, telemetry.PairsPrunedSize,
		telemetry.PairsPrunedProfile, telemetry.PairsPrunedRewrite, telemetry.BlockCacheHits, telemetry.BlockCacheMisses,
		telemetry.RewritesAttempted, telemetry.RewritesSkipped, telemetry.RewritesSucceeded,
		telemetry.CSPSolves, telemetry.CSPBacktracks, telemetry.CSPBudgetExhausted} {
		fmt.Fprintf(&b, "total %s %d\n", c, tel.Get(c))
	}
	return b.Bytes()
}

// TestPrunedWorkGolden pins the work of the pruned run over the golden
// corpus and queries, which TestCompareGolden holds only to its answers:
// every pair the cascade cuts, at which bound, every block alignment
// computed or reused, every rewrite and solve. A change to how the cascade
// is evaluated that leaves the cascade itself alone must leave all of it
// as it is.
func TestPrunedWorkGolden(t *testing.T) {
	ds := goldenCorpus(t)
	queries := goldenQueries(ds, 24)
	pruned, tel := goldenRun(ds, queries, true)
	checkGolden(t, prunedWorkGolden, renderPrunedWork(ds, queries, pruned, tel))
}

// checkGolden holds got to the gzipped golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		var z bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&z, gzip.BestCompression)
		zw.Write(got)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, %d uncompressed)", path, z.Len(), len(got))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s mismatch at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s mismatch: %d lines, want %d", path, len(gl), len(wl))
}
