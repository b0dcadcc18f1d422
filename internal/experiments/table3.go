package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graphlet"
	"repro/internal/metrics"
	"repro/internal/ngram"
)

// Table3Row is one method's accuracy over the pooled query set.
type Table3Row struct {
	Method string
	ROC    float64
	CROC   float64
	AP     float64 // average precision, the precision/recall summary
}

// Table3 compares tracelet matching (ratio and containment
// normalizations, k=3, β=0.8) against n-grams (size 5, delta 1) and
// graphlets (k=5) on the same query set, reporting ROC and CROC AUC
// (paper Table 3: 6 experiments with a single shared threshold swept by
// the ROC machinery).
func (env *Env) Table3() []Table3Row {
	var rows []Table3Row

	// Tracelet matching, both normalizations.
	for _, norm := range []struct {
		name string
		opts core.Options
	}{
		{"tracelets k=3 ratio", matcherOptions(3, 0.8)},
		{"tracelets k=3 contain", func() core.Options {
			o := matcherOptions(3, 0.8)
			o.Norm = 1 // align.Containment
			return o
		}()},
	} {
		var samples []metrics.Sample
		for _, q := range env.Queries {
			for i, r := range env.rank(q, norm.opts) {
				samples = append(samples, metrics.Sample{
					Score:    r.SimilarityScore,
					Positive: sampleLabel(q, env.DB.Entries[i]),
				})
			}
		}
		rows = append(rows, Table3Row{
			Method: norm.name,
			ROC:    metrics.ROCAUC(samples),
			CROC:   metrics.CROCAUC(samples),
			AP:     metrics.AveragePrecision(samples),
		})
	}

	// n-grams, size 5 delta 1.
	{
		opts := ngram.DefaultOptions()
		fps := make([]*ngram.Fingerprint, len(env.DB.Entries))
		for i, e := range env.DB.Entries {
			fn, _ := e.Decode()
			fps[i] = ngram.Extract(fn, opts)
		}
		var samples []metrics.Sample
		for _, q := range env.Queries {
			qf := ngram.Extract(q.Fn, opts)
			for i := range fps {
				samples = append(samples, metrics.Sample{
					Score:    ngram.Similarity(qf, fps[i]),
					Positive: sampleLabel(q, env.DB.Entries[i]),
				})
			}
		}
		rows = append(rows, Table3Row{
			Method: "n-grams size5 delta1",
			ROC:    metrics.ROCAUC(samples),
			CROC:   metrics.CROCAUC(samples),
			AP:     metrics.AveragePrecision(samples),
		})
	}

	// graphlets, k=5.
	{
		opts := graphlet.DefaultOptions()
		fps := make([]*graphlet.Fingerprint, len(env.DB.Entries))
		for i, e := range env.DB.Entries {
			fn, _ := e.Decode()
			fps[i] = graphlet.Extract(fn, opts)
		}
		var samples []metrics.Sample
		for _, q := range env.Queries {
			qf := graphlet.Extract(q.Fn, opts)
			for i := range fps {
				samples = append(samples, metrics.Sample{
					Score:    graphlet.Similarity(qf, fps[i]),
					Positive: sampleLabel(q, env.DB.Entries[i]),
				})
			}
		}
		rows = append(rows, Table3Row{
			Method: "graphlets k=5",
			ROC:    metrics.ROCAUC(samples),
			CROC:   metrics.CROCAUC(samples),
			AP:     metrics.AveragePrecision(samples),
		})
	}
	return rows
}

// RenderTable3 prints the accuracy comparison.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: accuracy, tracelets vs n-grams vs graphlets (%d queries pooled)\n", 6)
	fmt.Fprintf(w, "%-24s %10s %10s %10s\n", "method", "AUC[ROC]", "AUC[CROC]", "AP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.4f %10.4f %10.4f\n", r.Method, r.ROC, r.CROC, r.AP)
	}
}
