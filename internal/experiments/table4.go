package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/rewrite"
	"repro/internal/tinyc"
)

// liftLargest compiles src at the given level (0=O0,1=O1,2=O2,3=Os) and
// context seed, strips, lifts, and returns the largest function.
func liftLargest(src string, level int, seed int64) (*prep.Function, error) {
	opt := []tinyc.OptLevel{tinyc.O0, tinyc.O1, tinyc.O2, tinyc.Os}[level]
	img, err := tinyc.BuildStripped(src, tinyc.Config{Opt: opt, Seed: seed})
	if err != nil {
		return nil, err
	}
	fns, err := prep.LiftImage(img)
	if err != nil {
		return nil, err
	}
	best := fns[0]
	for _, fn := range fns[1:] {
		if fn.NumInsts() > best.NumInsts() {
			best = fn
		}
	}
	return best, nil
}

// Timing summarizes one operation's measured runtimes and the work they
// timed.
type Timing struct {
	Item string
	Op   string
	Avg  time.Duration
	Std  time.Duration
	Med  time.Duration
	Min  time.Duration
	Max  time.Duration
	N    int
	Work Work
}

// Work is what an operation's N runs did, counted: unlike their runtimes,
// the same on every machine and under any load.
type Work struct {
	Pairs    int // tracelet pairs compared: aligned, or cut by a bound
	Rewrites int // pairs the rewrite stage solved at least one variable for
}

func (w *Work) add(r core.Result) {
	w.Pairs += r.PairsCompared
	w.Rewrites += r.PairsRewritten
}

func summarize(item, op string, samples []time.Duration, work Work) Timing {
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = float64(d)
	}
	mean, std := stats(xs)
	med := median(xs)
	lo, hi := minMax(xs)
	return Timing{
		Item: item, Op: op,
		Avg: time.Duration(mean), Std: time.Duration(std),
		Med: time.Duration(med), Min: time.Duration(lo), Max: time.Duration(hi),
		N: len(samples), Work: work,
	}
}

// Table4 measures tracelet-to-tracelet and function-to-function
// comparison runtimes, with and without the rewrite engine, on large
// (~200-basic-block) functions — paper Table 4. stmts sizes the test
// functions; pairs bounds the tracelet sample count.
func Table4(stmts, pairs int) ([]Timing, error) {
	if stmts <= 0 {
		stmts = 240
	}
	if pairs <= 0 {
		pairs = 400
	}
	src := corpus.RandomFunc("big", 31, corpus.GenConfig{Stmts: stmts, Calls: true})
	refFn, err := liftLargest(src, 2, 41)
	if err != nil {
		return nil, err
	}
	tgtFn, err := liftLargest(src, 2, 42) // same code, different context
	if err != nil {
		return nil, err
	}
	ref := core.Decompose(refFn, 3)
	tgt := core.Decompose(tgtFn, 3)
	if len(ref.Tracelets) == 0 || len(tgt.Tracelets) == 0 {
		return nil, fmt.Errorf("experiments: test functions too small")
	}

	rng := rand.New(rand.NewSource(7))
	var alignTimes, rwTimes []time.Duration
	var alignWork, rwWork Work
	for i := 0; i < pairs; i++ {
		r := ref.Tracelets[rng.Intn(len(ref.Tracelets))]
		t := tgt.Tracelets[rng.Intn(len(tgt.Tracelets))]
		start := time.Now()
		_ = align.AlignBlocks(r.Blocks, t.Blocks)
		alignTimes = append(alignTimes, time.Since(start))
		alignWork.Pairs++

		start = time.Now()
		al := align.AlignBlocks(r.Blocks, t.Blocks)
		rw := rewrite.Rewrite(r.Blocks, t.Blocks, al)
		_ = align.ScoreBlocks(r.Blocks, rw.Blocks)
		rwTimes = append(rwTimes, time.Since(start))
		rwWork.Pairs++
		if rw.NumVars > 0 { // the rewrite abstracted and solved something
			rwWork.Rewrites++
		}
	}

	var fnAlign, fnRW []time.Duration
	var fnAlignWork, fnRWWork Work
	noRW := core.NewMatcher(matcherOptions(3, 0.8))
	noRW.Opts.UseRewrite = false
	withRW := core.NewMatcher(matcherOptions(3, 0.8))
	// Warm up allocator and caches before timing.
	_ = noRW.Compare(ref, tgt)
	_ = withRW.Compare(ref, tgt)
	const fnRuns = 3
	for i := 0; i < fnRuns; i++ {
		start := time.Now()
		r := noRW.Compare(ref, tgt)
		fnAlign = append(fnAlign, time.Since(start))
		fnAlignWork.add(r)
		start = time.Now()
		r = withRW.Compare(ref, tgt)
		fnRW = append(fnRW, time.Since(start))
		fnRWWork.add(r)
	}
	return []Timing{
		summarize("Tracelet", "Align", alignTimes, alignWork),
		summarize("Tracelet", "Align&RW", rwTimes, rwWork),
		summarize("Function", "Align", fnAlign, fnAlignWork),
		summarize("Function", "Align&RW", fnRW, fnRWWork),
	}, nil
}

// RenderTable4 prints the runtime table in the paper's layout.
func RenderTable4(w io.Writer, rows []Timing) {
	fmt.Fprintf(w, "Table 4: comparison runtimes (rewrite engine on large functions)\n")
	fmt.Fprintf(w, "%-9s %-9s %12s %12s %12s %12s %12s %6s\n",
		"Item", "Op", "AVG", "STD", "Med", "Min", "Max", "N")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-9s %12v %12v %12v %12v %12v %6d\n",
			r.Item, r.Op, r.Avg, r.Std, r.Med, r.Min, r.Max, r.N)
	}
}
