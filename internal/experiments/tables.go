package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tracelet"
)

// ---------------------------------------------------------------------
// Table 1: test-bed statistics for k = 1..5.

// Table1Row mirrors one row of paper Table 1.
type Table1Row struct {
	K                int
	Tracelets        int     // total tracelets in the database
	Compares         float64 // query tracelets × database tracelets
	PerFuncMean      float64 // tracelets per function
	PerFuncStd       float64
	InstsPerTracelet float64
	InstsStd         float64
	AvgInDegree      float64
	AvgOutDegree     float64
}

// Table1 computes the test-bed statistics. The compare count uses the
// first query's tracelet count, as the paper's table reflects one search
// over the whole database.
func (env *Env) Table1() []Table1Row {
	var rows []Table1Row
	for k := 1; k <= 5; k++ {
		var row Table1Row
		row.K = k
		var perFunc, instsPer []float64
		var inSum, outSum float64
		for _, e := range env.DB.Entries {
			fn, _ := e.Decode()
			ts := tracelet.Extract(fn.Graph, k)
			row.Tracelets += len(ts)
			perFunc = append(perFunc, float64(len(ts)))
			for _, t := range ts {
				instsPer = append(instsPer, float64(t.NumInsts()))
			}
			if k == 1 {
				in, out := fn.Graph.AvgDegrees()
				inSum += in
				outSum += out
			}
		}
		row.PerFuncMean, row.PerFuncStd = stats(perFunc)
		row.InstsPerTracelet, row.InstsStd = stats(instsPer)
		if len(env.Queries) > 0 {
			q := core.Decompose(env.Queries[0].Fn, k)
			row.Compares = float64(len(q.Tracelets)) * float64(row.Tracelets)
		}
		if k == 1 && len(env.DB.Entries) > 0 {
			row.AvgInDegree = inSum / float64(len(env.DB.Entries))
			row.AvgOutDegree = outSum / float64(len(env.DB.Entries))
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable1 prints the rows in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: test-bed statistics (std in brackets)\n")
	fmt.Fprintf(w, "%-4s %12s %14s %22s %22s\n",
		"K", "#Tracelets", "#Compares", "#Tracelets/Function", "#Instructions/Tracelet")
	for _, r := range rows {
		fmt.Fprintf(w, "k=%-2d %12d %14.3e %12.3f[%.3f] %12.3f[%.3f]\n",
			r.K, r.Tracelets, r.Compares, r.PerFuncMean, r.PerFuncStd,
			r.InstsPerTracelet, r.InstsStd)
	}
	for _, r := range rows {
		if r.K == 1 {
			fmt.Fprintf(w, "CFG avg in-degree %.4f, avg out-degree %.4f\n",
				r.AvgInDegree, r.AvgOutDegree)
		}
	}
}

// ---------------------------------------------------------------------
// Table 2 (β sweep) and the Section 6.1 k sweep.

// betaSweepSamples computes, per query×entry pair, the per-reference-
// tracelet best scores (with rewriting), so any β can be evaluated
// afterwards. Returned: for each pair, the positive label and the sorted
// best-score list.
type pairScores struct {
	positive bool
	best     []float64 // per reference tracelet, descending not required
}

func (env *Env) sweepScores(k int) []pairScores {
	m := core.NewMatcher(matcherOptions(k, 0.8))
	var out []pairScores
	targets, err := env.DB.Decomposed(k)
	if err != nil {
		panic(err) // as in rank: BuildEnv wrote the store from memory
	}
	for _, q := range env.Queries {
		ref := core.Decompose(q.Fn, k)
		type res struct {
			i    int
			post []float64
		}
		ch := make(chan res, len(targets))
		sem := make(chan struct{}, 8)
		for i := range targets {
			go func(i int) {
				sem <- struct{}{}
				defer func() { <-sem }()
				_, post := m.BestScores(ref, targets[i])
				ch <- res{i, post}
			}(i)
		}
		collected := make([][]float64, len(targets))
		for range targets {
			r := <-ch
			collected[r.i] = r.post
		}
		for i := range targets {
			out = append(out, pairScores{
				positive: sampleLabel(q, env.DB.Entries[i]),
				best:     collected[i],
			})
		}
	}
	return out
}

// simAt computes the function similarity score (coverage rate) at a given
// tracelet threshold β from precomputed best scores.
func simAt(best []float64, beta float64) float64 {
	if len(best) == 0 {
		return 0
	}
	n := 0
	for _, b := range best {
		if b > beta {
			n++
		}
	}
	return float64(n) / float64(len(best))
}

// Table2Row is one β setting's accuracy.
type Table2Row struct {
	BetaPercent int
	CROC        float64
	ROC         float64
}

// Table2 sweeps the tracelet-match threshold β from 10% to 100% at k=3
// (paper Table 2).
func (env *Env) Table2() []Table2Row {
	scores := env.sweepScores(3)
	var rows []Table2Row
	for bp := 10; bp <= 100; bp += 10 {
		beta := float64(bp) / 100
		if bp == 100 {
			beta = 0.9999 // "> β" with β=1.0 would reject perfect matches
		}
		var samples []metrics.Sample
		for _, p := range scores {
			samples = append(samples, metrics.Sample{
				Score:    simAt(p.best, beta),
				Positive: p.positive,
			})
		}
		rows = append(rows, Table2Row{
			BetaPercent: bp,
			CROC:        metrics.CROCAUC(samples),
			ROC:         metrics.ROCAUC(samples),
		})
	}
	return rows
}

// RenderTable2 prints the β sweep.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: CROC AUC for 3-tracelet matching at each β\n")
	fmt.Fprintf(w, "%-10s", "β value")
	for _, r := range rows {
		fmt.Fprintf(w, " %6d", r.BetaPercent)
	}
	fmt.Fprintf(w, "\n%-10s", "AUC[CROC]")
	for _, r := range rows {
		fmt.Fprintf(w, " %6.2f", r.CROC)
	}
	fmt.Fprintf(w, "\n%-10s", "AUC[ROC]")
	for _, r := range rows {
		fmt.Fprintf(w, " %6.2f", r.ROC)
	}
	fmt.Fprintln(w)
}

// KSweepRow is one tracelet size's best accuracy, plus the separation
// margin (minimum positive similarity − maximum negative similarity at
// β=0.8): the margin shrinks at small k because short tracelets have fewer
// instructions to match and fewer constraints (paper Section 6.1), even
// when a small corpus leaves the AUC at its ceiling.
type KSweepRow struct {
	K          int
	BestCROC   float64
	BestBeta   int // β percent achieving it
	Separation float64
}

// KSweep evaluates k = 1..4 over all β settings and reports each k's best
// CROC AUC (paper Section 6.1 "Testing different values of k").
func (env *Env) KSweep() []KSweepRow {
	var rows []KSweepRow
	for k := 1; k <= 4; k++ {
		scores := env.sweepScores(k)
		best := KSweepRow{K: k}
		for bp := 10; bp <= 90; bp += 10 {
			beta := float64(bp) / 100
			var samples []metrics.Sample
			for _, p := range scores {
				samples = append(samples, metrics.Sample{
					Score:    simAt(p.best, beta),
					Positive: p.positive,
				})
			}
			if auc := metrics.CROCAUC(samples); auc > best.BestCROC {
				best.BestCROC = auc
				best.BestBeta = bp
			}
		}
		minPos, maxNeg := 1.0, 0.0
		for _, p := range scores {
			s := simAt(p.best, 0.8)
			if p.positive && s < minPos {
				minPos = s
			}
			if !p.positive && s > maxNeg {
				maxNeg = s
			}
		}
		best.Separation = minPos - maxNeg
		rows = append(rows, best)
	}
	return rows
}

// RenderKSweep prints the k sweep.
func RenderKSweep(w io.Writer, rows []KSweepRow) {
	fmt.Fprintf(w, "Section 6.1 k sweep: best CROC AUC per tracelet size\n")
	sort.Slice(rows, func(i, j int) bool { return rows[i].K < rows[j].K })
	for _, r := range rows {
		fmt.Fprintf(w, "k=%d  CROC AUC %.3f (best β=%d%%), pos/neg separation %+.3f\n",
			r.K, r.BestCROC, r.BestBeta, r.Separation)
	}
}
