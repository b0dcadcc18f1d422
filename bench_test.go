package tracy

// Benchmarks backing the paper's quantitative tables. Each benchmark maps
// to an evaluation artifact (see DESIGN.md):
//
//	BenchmarkExtractTracelets     Table 1 (extraction throughput per k)
//	BenchmarkTraceletAlign        Table 4 row "Tracelet / Align"
//	BenchmarkTraceletAlignRewrite Table 4 row "Tracelet / Align&RW"
//	BenchmarkFunctionCompare*     Table 4 rows "Function / *"
//	BenchmarkSearch               Table 1 #Compares (a query vs a database)
//	BenchmarkNgram / Graphlet     Table 3 baselines
//	BenchmarkLift                 disassembly+preprocessing substrate
//	BenchmarkCompile              corpus generation substrate
//
// Absolute times land in bench_output.txt; EXPERIMENTS.md compares shapes
// against the paper's Table 4.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bin"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/graphlet"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/ngram"
	"repro/internal/prep"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
	"repro/internal/tracelet"
	"repro/internal/x86"
)

// benchFunc compiles a large random function (~Table 4's "functions
// containing ~200 basic blocks") in the given context.
func benchFunc(b testing.TB, stmts int, seed int64) *prep.Function {
	b.Helper()
	src := corpus.RandomFunc("bench", 31, corpus.GenConfig{Stmts: stmts, Calls: true})
	img, err := tinyc.BuildStripped(src, tinyc.Config{Opt: tinyc.O2, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	fns, err := prep.LiftImage(img)
	if err != nil {
		b.Fatal(err)
	}
	best := fns[0]
	for _, fn := range fns[1:] {
		if fn.NumInsts() > best.NumInsts() {
			best = fn
		}
	}
	return best
}

func BenchmarkExtractTracelets(b *testing.B) {
	fn := benchFunc(b, 240, 41)
	for k := 1; k <= 5; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts := tracelet.Extract(fn.Graph, k)
				if len(ts) == 0 && k == 1 {
					b.Fatal("no tracelets")
				}
			}
		})
	}
}

// traceletPairs draws matched-size tracelet pairs from two contexts of the
// same function.
func traceletPairs(b *testing.B) ([]*tracelet.Tracelet, []*tracelet.Tracelet) {
	b.Helper()
	ref := core.Decompose(benchFunc(b, 240, 41), 3)
	tgt := core.Decompose(benchFunc(b, 240, 42), 3)
	if len(ref.Tracelets) == 0 || len(tgt.Tracelets) == 0 {
		b.Fatal("no tracelets")
	}
	return ref.Tracelets, tgt.Tracelets
}

func BenchmarkTraceletAlign(b *testing.B) {
	refs, tgts := traceletPairs(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[rng.Intn(len(refs))]
		t := tgts[rng.Intn(len(tgts))]
		_ = align.ScoreBlocks(r.Blocks, t.Blocks)
	}
}

func BenchmarkTraceletAlignRewrite(b *testing.B) {
	refs, tgts := traceletPairs(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[rng.Intn(len(refs))]
		t := tgts[rng.Intn(len(tgts))]
		al := align.AlignBlocks(r.Blocks, t.Blocks)
		rw := rewrite.Rewrite(r.Blocks, t.Blocks, al)
		_ = align.ScoreBlocks(r.Blocks, rw.Blocks)
	}
}

func BenchmarkFunctionCompare(b *testing.B) {
	ref := core.Decompose(benchFunc(b, 240, 41), 3)
	tgt := core.Decompose(benchFunc(b, 240, 42), 3)
	m := core.NewMatcher(core.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Compare(ref, tgt)
	}
}

func BenchmarkFunctionCompareNoRewrite(b *testing.B) {
	ref := core.Decompose(benchFunc(b, 240, 41), 3)
	tgt := core.Decompose(benchFunc(b, 240, 42), 3)
	opts := core.DefaultOptions()
	opts.UseRewrite = false
	m := core.NewMatcher(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Compare(ref, tgt)
	}
}

// benchDB builds a small indexed corpus once per benchmark run.
func benchDB(b *testing.B) *index.DB {
	b.Helper()
	c, err := corpus.Build(corpus.BuildConfig{
		Seed: 5, ContextCopies: 3, Versions: 2, NoiseExes: 3,
		FuncsPerExe: 4, TargetStmts: 50, FillerStmts: 20, Opt: tinyc.O2,
	})
	if err != nil {
		b.Fatal(err)
	}
	db := index.New()
	for _, e := range c.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			b.Fatal(err)
		}
	}
	db.Decomposed(3) // prebuild
	return db
}

func BenchmarkSearch(b *testing.B) {
	db := benchDB(b)
	query := benchFunc(b, 50, 99)
	snap, q := db.View(), index.Query{Func: query, Opts: core.DefaultOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNgramExtract(b *testing.B) {
	fn := benchFunc(b, 240, 41)
	opts := ngram.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ngram.Extract(fn, opts)
	}
}

func BenchmarkNgramSimilarity(b *testing.B) {
	opts := ngram.DefaultOptions()
	x := ngram.Extract(benchFunc(b, 240, 41), opts)
	y := ngram.Extract(benchFunc(b, 240, 42), opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ngram.Similarity(x, y)
	}
}

func BenchmarkGraphletExtract(b *testing.B) {
	fn := benchFunc(b, 240, 41)
	opts := graphlet.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graphlet.Extract(fn, opts)
	}
}

func BenchmarkLift(b *testing.B) {
	src := corpus.RandomFunc("bench", 31, corpus.GenConfig{Stmts: 240, Calls: true})
	img, err := tinyc.BuildStripped(src, tinyc.Config{Opt: tinyc.O2, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.LiftImage(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	src := corpus.RandomFunc("bench", 31, corpus.GenConfig{Stmts: 240, Calls: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tinyc.Build(src, tinyc.Config{Opt: tinyc.O2, Seed: 41}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSPRewriteSolve(b *testing.B) {
	refs, tgts := traceletPairs(b)
	// Pick the largest tracelet pair for a heavy solver instance.
	r, t := refs[0], tgts[0]
	for _, c := range refs {
		if c.NumInsts() > r.NumInsts() {
			r = c
		}
	}
	for _, c := range tgts {
		if c.NumInsts() > t.NumInsts() {
			t = c
		}
	}
	al := align.AlignBlocks(r.Blocks, t.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rewrite.Rewrite(r.Blocks, t.Blocks, al)
	}
}

func BenchmarkDecodeAll(b *testing.B) {
	src := corpus.RandomFunc("bench", 31, corpus.GenConfig{Stmts: 240, Calls: true})
	img, err := tinyc.BuildStripped(src, tinyc.Config{Opt: tinyc.O2, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	f, err := bin.Read(img)
	if err != nil {
		b.Fatal(err)
	}
	fns, err := f.Functions()
	if err != nil {
		b.Fatal(err)
	}
	code, addr := fns[0].Code, fns[0].Addr
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x86.DecodeAll(code, addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulate(b *testing.B) {
	src := corpus.RandomFunc("bench", 31, corpus.GenConfig{Stmts: 60, Calls: true})
	img, err := tinyc.Build(src, tinyc.Config{Opt: tinyc.O2, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	m, err := emu.New(img)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallByName("bench", 6, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplain(b *testing.B) {
	ref := core.Decompose(benchFunc(b, 120, 41), 3)
	tgt := core.Decompose(benchFunc(b, 120, 42), 3)
	m := core.NewMatcher(core.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Explain(ref, tgt)
	}
}

func BenchmarkMetricsCROC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]metrics.Sample, 5000)
	for i := range samples {
		samples[i] = metrics.Sample{Score: rng.Float64(), Positive: rng.Intn(50) == 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.CROCAUC(samples)
	}
}

// BenchmarkFunctionCompareInstrumented is BenchmarkFunctionCompare with a
// live telemetry collector attached; the delta against the plain benchmark
// is the instrumentation overhead (target: under a few percent).
func BenchmarkFunctionCompareInstrumented(b *testing.B) {
	ref := core.Decompose(benchFunc(b, 240, 41), 3)
	tgt := core.Decompose(benchFunc(b, 240, 42), 3)
	opts := core.DefaultOptions()
	opts.Tel = telemetry.New()
	m := core.NewMatcher(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Compare(ref, tgt)
	}
}

// TestTelemetryOverheadReport measures Compare throughput with and without
// a collector and logs the result. A single point estimate on a
// shared runner is noise — early runs reported a *negative* overhead — so
// the test takes paired samples (instrumented and noop interleaved, order
// alternating each round) and reports the mean overhead with a 95%
// confidence interval. It fails only when the interval's lower bound sits
// above the target, i.e. on a statistically significant regression. Under
// the race detector, which instruments the collector's atomics and clock
// reads and little of the plain path, the overhead reads ~40 % and
// measures the detector: the report is taken in a build without it.
func TestTelemetryOverheadReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing report; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing report; the race detector's own overhead swamps the collector's")
	}
	ref := core.Decompose(benchFunc(t, 120, 41), 3)
	tgt := core.Decompose(benchFunc(t, 120, 42), 3)

	noop := core.NewMatcher(core.DefaultOptions())
	iOpts := core.DefaultOptions()
	iOpts.Tel = telemetry.New()
	inst := core.NewMatcher(iOpts)

	// Warm both paths so JIT-ish effects (page faults, cache fills, branch
	// history) are paid before measurement.
	for i := 0; i < 3; i++ {
		noop.Compare(ref, tgt)
		inst.Compare(ref, tgt)
	}

	// Paired samples: each round times a small batch of ops on both
	// matchers back to back, alternating which goes first, so clock
	// drift, GC pauses and thermal state hit both sides equally and the
	// per-round *difference* is what carries signal.
	const (
		rounds   = 30
		batchOps = 3
	)
	timeBatch := func(m *core.Matcher) float64 {
		t0 := time.Now()
		for i := 0; i < batchOps; i++ {
			_ = m.Compare(ref, tgt)
		}
		return float64(time.Since(t0).Nanoseconds()) / batchOps
	}
	var noopNS, instNS float64
	diffs := make([]float64, rounds) // per-round relative overhead, in percent
	for i := 0; i < rounds; i++ {
		var n, ins float64
		if i%2 == 0 {
			n = timeBatch(noop)
			ins = timeBatch(inst)
		} else {
			ins = timeBatch(inst)
			n = timeBatch(noop)
		}
		noopNS += n
		instNS += ins
		diffs[i] = (ins - n) / n * 100
	}
	noopNS /= rounds
	instNS /= rounds

	// Mean and 95% CI of the paired relative differences (t ≈ 2.045 for
	// 29 degrees of freedom).
	var mean float64
	for _, d := range diffs {
		mean += d
	}
	mean /= rounds
	var ss float64
	for _, d := range diffs {
		ss += (d - mean) * (d - mean)
	}
	stderr := math.Sqrt(ss/(rounds-1)) / math.Sqrt(rounds)
	const t95 = 2.045
	lo, hi := mean-t95*stderr, mean+t95*stderr

	const target = 3.0
	t.Logf("noop %.0f ns/op, instrumented %.0f ns/op, overhead %.2f%% (95%% CI [%.2f%%, %.2f%%])",
		noopNS, instNS, mean, lo, hi)
	if lo > target {
		t.Errorf("instrumentation overhead %.2f%% (CI low %.2f%%) is significantly above the %.0f%% target",
			mean, lo, target)
	}
}
