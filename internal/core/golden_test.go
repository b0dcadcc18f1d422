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

var updateGolden = flag.Bool("update", false, "rewrite testdata/compare_golden.txt.gz from the current matcher")

const goldenPath = "testdata/compare_golden.txt.gz"

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

// renderGolden runs every (query, target) comparison under DefaultOptions
// and with the pruner off and renders every Result field except
// PairsPruned (work accounting that exists only when the pruner runs),
// followed by the rewrite counters of each run. Solver counters are
// rendered for the unpruned run only: a tighter rewrite bound legitimately
// lowers them when pruning is on.
func renderGolden(ds []*core.Decomposed) []byte {
	var b bytes.Buffer
	for i, d := range ds {
		fmt.Fprintf(&b, "func %d %s insts=%d tracelets=%d\n", i, d.Name, d.NumInsts, len(d.Tracelets))
	}
	queries := goldenQueries(ds, 24)
	for _, prune := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.Prune = prune
		opts.Tel = telemetry.New()
		m := core.NewMatcher(opts)
		fmt.Fprintf(&b, "run prune=%t\n", prune)
		for _, q := range queries {
			for t, tgt := range ds {
				r := m.Compare(ds[q], tgt)
				fmt.Fprintf(&b, "%d %d %s %.17g %t %d %d %d %d %d %t\n", q, t, r.Name, r.SimilarityScore, r.IsMatch,
					r.RefTracelets, r.MatchedDirect, r.MatchedRewrite, r.PairsCompared, r.PairsRewritten, r.Truncated)
			}
		}
		counters := []telemetry.Counter{telemetry.RewritesAttempted, telemetry.RewritesSkipped, telemetry.RewritesSucceeded}
		if !prune {
			counters = append(counters, telemetry.CSPSolves, telemetry.CSPBacktracks, telemetry.CSPBudgetExhausted)
		}
		for _, c := range counters {
			fmt.Fprintf(&b, "total %s %d\n", c, opts.Tel.Get(c))
		}
	}
	return b.Bytes()
}

// TestCompareGolden pins the matcher's answers to the file recorded before
// the packed compare core replaced the string-based one: an oracle that
// shares no code with the matcher under test, unlike prune parity and the
// serial difftest oracle, which run the same rewrite on both sides.
func TestCompareGolden(t *testing.T) {
	got := renderGolden(goldenCorpus(t))
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
		if err := os.WriteFile(goldenPath, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, %d uncompressed)", goldenPath, z.Len(), len(got))
		return
	}
	f, err := os.Open(goldenPath)
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
			t.Fatalf("golden mismatch at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden mismatch: %d lines, want %d", len(gl), len(wl))
}
