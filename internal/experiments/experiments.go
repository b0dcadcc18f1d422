// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5-6) against a synthetic corpus built with the
// TinyC compiler substrate: Table 1 (test-bed statistics), Table 2
// (β sweep), the Section 6.1 k sweep, Table 3 (tracelets vs n-grams vs
// graphlets), Fig. 8 (rewrite-engine contribution per executable),
// Table 4 (runtimes) and the Section 8 optimization-level study.
//
// Absolute numbers differ from the paper (different corpus, different
// hardware); the *shapes* — who wins, where thresholds plateau, what the
// rewrite engine adds — are the reproduction target and are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// Env is the shared evaluation environment: the corpus, the index built
// from it, and the designated query functions with their ground truth.
type Env struct {
	Corpus *corpus.Corpus
	DB     *index.DB

	// Queries are functions re-compiled in a fresh context (a seed not
	// present in the corpus), mimicking "a binary in hand" that is not
	// itself part of the code base.
	Queries []Query
}

// Query is one search query with ground truth.
type Query struct {
	Name  string // descriptive
	Truth string // ground-truth name matched against index entries ("" = noise)
	Fn    *prep.Function
}

// Scale selects corpus size.
type Scale int

// Corpus scales.
const (
	ScaleSmall  Scale = iota // CI-sized: seconds
	ScaleMedium              // default CLI: tens of seconds
	ScaleLarge               // benchmark: minutes
)

func buildConfig(s Scale) corpus.BuildConfig {
	switch s {
	case ScaleMedium:
		return corpus.BuildConfig{
			Seed: 1, ContextCopies: 6, Versions: 4, NoiseExes: 8,
			FuncsPerExe: 10, TargetStmts: 90, FillerStmts: 30, Opt: tinyc.O2,
		}
	case ScaleLarge:
		return corpus.BuildConfig{
			Seed: 1, ContextCopies: 8, Versions: 5, NoiseExes: 30,
			FuncsPerExe: 20, TargetStmts: 120, FillerStmts: 40, Opt: tinyc.O2,
		}
	default:
		return corpus.BuildConfig{
			Seed: 1, ContextCopies: 3, Versions: 3, NoiseExes: 3,
			FuncsPerExe: 4, TargetStmts: 50, FillerStmts: 18, Opt: tinyc.O2,
		}
	}
}

// BuildEnv constructs the corpus, indexes it, and prepares the query set.
// Env.DB is the database AddImage built; its snapshot views every entry
// over the records AddImage packed, as tracy search views a file's.
func BuildEnv(s Scale) (*Env, error) {
	cfg := buildConfig(s)
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	db := index.New()
	for _, e := range c.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			return nil, err
		}
	}
	env := &Env{Corpus: c, DB: db}

	// Query 1: the shared library function, compiled in an unseen context
	// (paper: quotearg_buffer_restyled from wc).
	libSrc := corpus.RandomFunc(corpus.LibFuncName, cfg.Seed*7+3,
		corpus.GenConfig{Stmts: cfg.TargetStmts, Calls: true})
	if err := env.addQuery("lib-fresh-context", corpus.LibFuncName, libSrc, 777); err != nil {
		return nil, err
	}
	// Query 2: the same function "implanted": compiled together with
	// foreign functions into a different executable (paper: wc 7.6
	// implanted in wc 8.19).
	implantSrc := libSrc + "\n" + corpus.RandomFunc("host1", 901, corpus.GenConfig{Stmts: cfg.FillerStmts, Calls: true})
	if err := env.addQuery("lib-implanted", corpus.LibFuncName, implantSrc, 778); err != nil {
		return nil, err
	}
	// Query 3: version 0 of the app function (paper: getftp from wget
	// 1.10 searched across versions).
	appSrc := corpus.VersionedFunc(corpus.AppFuncName, cfg.Seed*13+5, 0, 8, cfg.TargetStmts/8)
	if err := env.addQuery("app-v0", corpus.AppFuncName, appSrc, 779); err != nil {
		return nil, err
	}
	// Query 4: the newest version of the app function.
	appSrcN := corpus.VersionedFunc(corpus.AppFuncName, cfg.Seed*13+5, cfg.Versions-1, 8, cfg.TargetStmts/8)
	if err := env.addQuery("app-latest", corpus.AppFuncName, appSrcN, 780); err != nil {
		return nil, err
	}
	// Queries 5-6: noise functions with no true matches in the corpus.
	for i, seed := range []int64{555, 556} {
		src := corpus.RandomFunc(fmt.Sprintf("noiseq%d", i), seed,
			corpus.GenConfig{Stmts: cfg.TargetStmts, Calls: true})
		if err := env.addQuery(fmt.Sprintf("noise-%d", i), "", src, 781+int64(i)); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// addQuery compiles src (which may contain several functions) at O2,
// strips, lifts, and registers the *largest* function as the query (the
// planted one is always the largest by construction).
func (env *Env) addQuery(name, truth, src string, seed int64) error {
	fn, err := liftLargest(src, 2 /*O2*/, seed)
	if err != nil {
		return fmt.Errorf("experiments: query %s: %w", name, err)
	}
	env.Queries = append(env.Queries, Query{Name: name, Truth: truth, Fn: fn})
	return nil
}

// stats computes mean and (population) standard deviation.
func stats(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// rank searches the corpus for q under opts the way a client would, at
// Limit 0 and MinScore 0 so that every entry is kept, and returns each
// entry's Result at the entry's position in env.DB.Entries: the metrics
// sort their samples unstably, so the samples keep one order whatever the
// ranking. The store was written from memory by BuildEnv, so a record
// that fails to load is a bug in the writer, not bad input.
func (env *Env) rank(q Query, opts core.Options) []core.Result {
	ans, err := env.DB.View().Search(context.Background(), index.Query{Func: q.Fn, Opts: opts})
	if err != nil {
		panic(err)
	}
	at := make(map[*index.Entry]int, len(env.DB.Entries))
	for i, e := range env.DB.Entries {
		at[e] = i
	}
	out := make([]core.Result, len(env.DB.Entries))
	for _, h := range ans.Hits {
		out[at[h.Entry]] = h.Result
	}
	return out
}

// sampleLabel reports whether an index entry is a true match for a query.
func sampleLabel(q Query, e *index.Entry) bool {
	return q.Truth != "" && e.Truth == q.Truth
}

// sharedTel, when set by RunT before any sweep starts, is attached to
// every matcher the experiments build, so -stats/-pprof on the
// experiments subcommand observe the sweeps live. Nil (the default)
// keeps every telemetry hook a no-op.
var sharedTel *telemetry.Collector

// matcherOptions returns the default matcher configuration with the
// given β (as a fraction) and k.
func matcherOptions(k int, beta float64) core.Options {
	opts := core.DefaultOptions()
	opts.K = k
	opts.Beta = beta
	opts.Tel = sharedTel
	return opts
}
