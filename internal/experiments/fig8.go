package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Fig8Row is one executable's tracelet match breakdown for a query known
// to be present in it: the fraction matched by alignment alone, and the
// extra fraction recovered only by the rewrite engine (paper Fig. 8).
type Fig8Row struct {
	Query       string
	Exe         string
	Direct      float64 // matched before rewrite
	ViaRewrite  float64 // matched only after rewrite
	RefCount    int
	FuncMatched bool
}

// Fig8 measures, for each true-positive (query, executable) pair, how
// many reference tracelets matched before rewriting vs only after — the
// paper reports an average of 25% of tracelets matched only thanks to the
// rewrite.
func (env *Env) Fig8() []Fig8Row {
	var rows []Fig8Row
	opts := matcherOptions(3, 0.8)
	for _, q := range env.Queries {
		if q.Truth == "" {
			continue
		}
		for i, res := range env.rank(q, opts) {
			e := env.DB.Entries[i]
			if e.Truth != q.Truth {
				continue
			}
			n := float64(res.RefTracelets)
			if n == 0 {
				continue
			}
			rows = append(rows, Fig8Row{
				Query:       q.Name,
				Exe:         e.Exe,
				Direct:      float64(res.MatchedDirect) / n,
				ViaRewrite:  float64(res.MatchedRewrite) / n,
				RefCount:    res.RefTracelets,
				FuncMatched: res.IsMatch,
			})
		}
	}
	return rows
}

// RewriteContribution returns the average fraction of matched tracelets
// that required the rewrite engine, over all true-positive pairs.
func RewriteContribution(rows []Fig8Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for _, r := range rows {
		total := r.Direct + r.ViaRewrite
		if total == 0 {
			continue
		}
		sum += r.ViaRewrite / total
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RenderFig8 prints the per-executable breakdown as a text bar chart.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Fig 8: tracelets matched before rewrite (=) and only after rewrite (+)\n")
	for _, r := range rows {
		bar := ""
		for i := 0; i < int(r.Direct*40); i++ {
			bar += "="
		}
		for i := 0; i < int(r.ViaRewrite*40); i++ {
			bar += "+"
		}
		fmt.Fprintf(w, "%-14s %-8s |%-40s| %5.1f%% +%5.1f%% (n=%d)\n",
			r.Query, r.Exe, bar, r.Direct*100, r.ViaRewrite*100, r.RefCount)
	}
	fmt.Fprintf(w, "average rewrite contribution: %.1f%% of matched tracelets\n",
		RewriteContribution(rows)*100)
}

// ---------------------------------------------------------------------
// Section 8: optimization levels.

// OptLevelRow is the similarity of an O1-compiled query against the same
// source at each optimization level.
type OptLevelRow struct {
	Level string
	Score float64
	Match bool
}

// OptLevels reproduces the paper's Section 8 observation: an O1 binary
// finds O1/O2(/O3) builds of the same source but not O0 and Os builds.
func OptLevels(src string, opts core.Options) ([]OptLevelRow, error) {
	query, err := liftLargest(src, 1 /*O1*/, 501)
	if err != nil {
		return nil, err
	}
	ref := core.Decompose(query, opts.K)
	m := core.NewMatcher(opts)
	var rows []OptLevelRow
	for _, lv := range []int{0, 1, 2, 3} {
		// Two context seeds per level; report the mean.
		sum := 0.0
		match := false
		for _, seed := range []int64{601, 602} {
			fn, err := liftLargest(src, lv, seed)
			if err != nil {
				return nil, err
			}
			res := m.Compare(ref, core.Decompose(fn, opts.K))
			sum += res.SimilarityScore
			if res.IsMatch {
				match = true
			}
		}
		rows = append(rows, OptLevelRow{
			Level: []string{"O0", "O1", "O2", "Os"}[lv],
			Score: sum / 2,
			Match: match,
		})
	}
	return rows, nil
}

// RenderOptLevels prints the optimization-level study.
func RenderOptLevels(w io.Writer, rows []OptLevelRow) {
	fmt.Fprintf(w, "Section 8: O1 query vs same source at each level (mean of 2 contexts)\n")
	for _, r := range rows {
		verdict := "not found"
		if r.Match {
			verdict = "FOUND"
		}
		fmt.Fprintf(w, "%-3s similarity %.3f  %s\n", r.Level, r.Score, verdict)
	}
}
