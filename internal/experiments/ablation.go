package experiments

import (
	"fmt"
	"io"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
)

// AblationRow is one configuration's accuracy in the design-choice study.
type AblationRow struct {
	Config     string
	ROC        float64
	CROC       float64
	Separation float64
}

// Ablation measures the contribution of the design choices DESIGN.md
// calls out: the rewrite engine (on/off) and the rewrite-skip
// optimization of Section 6.3.
func (env *Env) Ablation() []AblationRow {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full (rewrite, skip<0.5)", matcherOptions(3, 0.8)},
		{"no rewrite", func() core.Options {
			o := matcherOptions(3, 0.8)
			o.UseRewrite = false
			return o
		}()},
		// The paper's §6.3 optimization skips rewrites for pairs scoring
		// below 50%. Lowering the cutoff to 30% admits far more rewrite
		// attempts; if accuracy does not move, the 50% cutoff is safe.
		{"rewrite, skip<0.3", func() core.Options {
			o := matcherOptions(3, 0.8)
			o.RewriteSkipBelow = 0.3
			return o
		}()},
	}
	var rows []AblationRow
	for _, cfg := range configs {
		var samples []metrics.Sample
		minPos, maxNeg := 1.0, 0.0
		for _, q := range env.Queries {
			for i, r := range env.rank(q, cfg.opts) {
				pos := sampleLabel(q, env.DB.Entries[i])
				samples = append(samples, metrics.Sample{Score: r.SimilarityScore, Positive: pos})
				if pos && r.SimilarityScore < minPos {
					minPos = r.SimilarityScore
				}
				if !pos && r.SimilarityScore > maxNeg {
					maxNeg = r.SimilarityScore
				}
			}
		}
		rows = append(rows, AblationRow{
			Config:     cfg.name,
			ROC:        metrics.ROCAUC(samples),
			CROC:       metrics.CROCAUC(samples),
			Separation: minPos - maxNeg,
		})
	}
	return rows
}

// RenderAblation prints the design-choice study.
func RenderAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation: rewrite-engine design choices (k=3, β=0.8)\n")
	fmt.Fprintf(w, "%-26s %10s %10s %12s\n", "config", "AUC[ROC]", "AUC[CROC]", "separation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.4f %10.4f %+12.3f\n", r.Config, r.ROC, r.CROC, r.Separation)
	}
}

// SmallFuncRow is one function size's matching quality in the Section 8
// small-function limitation study.
type SmallFuncRow struct {
	Stmts     int
	Blocks    int
	Tracelets int
	// NoiseScore is the best similarity any *unrelated* function reaches
	// against this query; CtxScore is the similarity of the same source
	// in another context. Small functions close the gap.
	CtxScore   float64
	NoiseScore float64
}

// SmallFunctions reproduces the Section 8 limitation: matching small
// functions produces bad results, because some tracelets are very common
// while slight changes to others cannot be evened out.
func SmallFunctions() ([]SmallFuncRow, error) {
	m := core.NewMatcher(matcherOptions(3, 0.8))
	var rows []SmallFuncRow
	for _, stmts := range []int{0, 6, 15, 40, 90} {
		// stmts==0 is the degenerate probe: a straight-line function with
		// a single basic block, which cannot produce any 3-tracelet.
		src := "int probe(int a, int b, char *s) { int v0 = 3; v0 = a + b * v0; return v0; }"
		if stmts > 0 {
			src = corpus.RandomFunc("probe", 11, corpus.GenConfig{Stmts: stmts, Calls: true})
		}
		query, err := liftLargest(src, 2 /*O2*/, 301)
		if err != nil {
			return nil, err
		}
		ctx, err := liftLargest(src, 2 /*O2*/, 302)
		if err != nil {
			return nil, err
		}
		ref := core.Decompose(query, 3)
		row := SmallFuncRow{
			Stmts:     stmts,
			Blocks:    query.NumBlocks(),
			Tracelets: len(ref.Tracelets),
			CtxScore:  m.Compare(ref, core.Decompose(ctx, 3)).SimilarityScore,
		}
		for seed := int64(0); seed < 6; seed++ {
			noiseSrc := corpus.RandomFunc("noise", 400+seed, corpus.GenConfig{Stmts: stmts, Calls: true})
			noise, err := liftLargest(noiseSrc, 2 /*O2*/, 303+seed)
			if err != nil {
				return nil, err
			}
			if s := m.Compare(ref, core.Decompose(noise, 3)).SimilarityScore; s > row.NoiseScore {
				row.NoiseScore = s
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSmallFunctions prints the small-function limitation study.
func RenderSmallFunctions(w io.Writer, rows []SmallFuncRow) {
	fmt.Fprintf(w, "Section 8 limitation: small functions (same-source context score vs best noise score)\n")
	fmt.Fprintf(w, "%-7s %-7s %-10s %-10s %-10s %-8s\n",
		"stmts", "blocks", "tracelets", "ctx", "noise", "margin")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7d %-7d %-10d %-10.2f %-10.2f %+-8.2f\n",
			r.Stmts, r.Blocks, r.Tracelets, r.CtxScore, r.NoiseScore,
			r.CtxScore-r.NoiseScore)
	}
}

// InlinedRow compares normalizations when searching for a function that
// the target binary has *inlined* (paper Section 8: "Dealing with inlined
// functions ... could be handled — but only to a certain extent — [with]
// the containment normalization method").
type InlinedRow struct {
	Norm  string
	Score float64
	Match bool
}

// Inlined builds a standalone copy of a leaf helper as the query and a
// host function that inlines it (O2) as the target, then compares under
// both normalizations.
func Inlined() ([]InlinedRow, error) {
	host := `
	int process(int a, int b, char *s) {
		int total = 0;
		int i = 0;
		for (i = 0; i < b; i = i + 1) {
			total = total + helper(i, a);
			if (total > 1000) { printf("result: %d", total); }
		}
		return total;
	}
	int helper(int i, int a) {
		int w = i * 3 + a % 7;
		if (w > 100) { w = w - 50; }
		while (w % 5 != 0) { w = w + 1; }
		if (w < 0) { w = 0; }
		return w;
	}
	`
	// The query: the helper alone, compiled without inlining hosts (it is
	// the only function, so nothing inlines into anything).
	helperOnly := `
	int helper(int i, int a) {
		int w = i * 3 + a % 7;
		if (w > 100) { w = w - 50; }
		while (w % 5 != 0) { w = w + 1; }
		if (w < 0) { w = 0; }
		return w;
	}
	`
	query, err := liftLargest(helperOnly, 2 /*O2*/, 801)
	if err != nil {
		return nil, err
	}
	target, err := liftLargest(host, 2 /*O2*/, 802) // helper inlined into process
	if err != nil {
		return nil, err
	}
	var rows []InlinedRow
	for _, norm := range []struct {
		name string
		m    align.Method
	}{{"ratio", align.Ratio}, {"containment", align.Containment}} {
		opts := matcherOptions(2, 0.8) // short tracelets: the query is small
		opts.Norm = norm.m
		m := core.NewMatcher(opts)
		res := m.Compare(core.Decompose(query, 2), core.Decompose(target, 2))
		rows = append(rows, InlinedRow{Norm: norm.name, Score: res.SimilarityScore, Match: res.IsMatch})
	}
	return rows, nil
}

// RenderInlined prints the inlining study.
func RenderInlined(w io.Writer, rows []InlinedRow) {
	fmt.Fprintf(w, "Section 8: finding a helper inlined into its caller (k=2)\n")
	for _, r := range rows {
		verdict := "not found"
		if r.Match {
			verdict = "FOUND"
		}
		fmt.Fprintf(w, "%-12s similarity %.3f  %s\n", r.Norm, r.Score, verdict)
	}
}
