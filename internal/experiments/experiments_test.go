package experiments

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// skipInShort gates the experiment sweeps: each one compiles a corpus and
// runs full searches, which dominates the test-suite wall clock. CI's
// race job runs with -short; the full suite still runs them.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweep; skipped in -short mode")
	}
}

// sharedEnv builds the small environment once per test binary.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = BuildEnv(ScaleSmall)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestTable1Shapes(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.Table1()
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The paper's counter-intuitive observation: tracelet count does NOT
	// explode with k (CFG out-degree ~1); instructions per tracelet grow.
	if rows[0].Tracelets == 0 {
		t.Fatal("no tracelets at k=1")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].InstsPerTracelet <= rows[i-1].InstsPerTracelet {
			t.Errorf("insts/tracelet not growing: k=%d %.1f vs k=%d %.1f",
				rows[i].K, rows[i].InstsPerTracelet, rows[i-1].K, rows[i-1].InstsPerTracelet)
		}
		// Generated CFGs are denser than coreutils' (branches, loops and
		// switch dispatch blocks), so counts grow with k instead of the
		// paper's mild decline — but there must be no exponential blow-up.
		if float64(rows[i].Tracelets) > 8*float64(rows[0].Tracelets) {
			t.Errorf("tracelet count exploding at k=%d: %d vs %d",
				rows[i].K, rows[i].Tracelets, rows[0].Tracelets)
		}
	}
	if rows[0].AvgOutDegree <= 0 || rows[0].AvgOutDegree > 2 {
		t.Errorf("avg out-degree %.2f implausible", rows[0].AvgOutDegree)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTable2BetaPlateau(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.Table2()
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	byBeta := map[int]float64{}
	for _, r := range rows {
		byBeta[r.BetaPercent] = r.CROC
	}
	// Shape: high thresholds (70-90) beat low thresholds (10-30).
	if byBeta[80] <= byBeta[20] {
		t.Errorf("β=80 (%.3f) should beat β=20 (%.3f)", byBeta[80], byBeta[20])
	}
	// The 70-90 plateau should be strong in absolute terms.
	if byBeta[80] < 0.8 {
		t.Errorf("β=80 CROC = %.3f, want >= 0.8", byBeta[80])
	}
	// The paper's dip at β=100: requiring perfect syntactic matches loses
	// the structurally-changed positives (e.g. switch lowered as a chain
	// in one binary and a jump table in another).
	if byBeta[100] >= byBeta[80] {
		t.Errorf("β=100 (%.3f) should dip below the plateau (%.3f)",
			byBeta[100], byBeta[80])
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
}

func TestKSweepShape(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.KSweep()
	byK := map[int]KSweepRow{}
	for _, r := range rows {
		byK[r.K] = r
	}
	// k=3 must be at least as accurate as k=1 (paper: 0.99 vs 0.83; at
	// this corpus scale both can hit the AUC ceiling)...
	if byK[3].BestCROC < byK[1].BestCROC {
		t.Errorf("k=3 (%.3f) should not trail k=1 (%.3f)",
			byK[3].BestCROC, byK[1].BestCROC)
	}
	// ...and the mechanism must show regardless of scale: longer tracelets
	// separate positives from negatives by a wider margin.
	if byK[3].Separation <= byK[1].Separation {
		t.Errorf("k=3 separation (%.3f) should exceed k=1 (%.3f)",
			byK[3].Separation, byK[1].Separation)
	}
	var buf bytes.Buffer
	RenderKSweep(&buf, rows)
}

func TestTable3TraceletsWin(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.Table3()
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byMethod := map[string]Table3Row{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	tr := byMethod["tracelets k=3 ratio"]
	ng := byMethod["n-grams size5 delta1"]
	gl := byMethod["graphlets k=5"]
	// The headline result: tracelets dominate on CROC.
	if tr.CROC <= ng.CROC {
		t.Errorf("tracelets CROC %.3f should beat n-grams %.3f", tr.CROC, ng.CROC)
	}
	if tr.CROC <= gl.CROC {
		t.Errorf("tracelets CROC %.3f should beat graphlets %.3f", tr.CROC, gl.CROC)
	}
	if tr.ROC < 0.95 {
		t.Errorf("tracelets ROC %.3f, want >= 0.95", tr.ROC)
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
}

func TestFig8RewriteContributes(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.Fig8()
	if len(rows) == 0 {
		t.Fatal("no true-positive pairs")
	}
	matched := 0
	for _, r := range rows {
		if r.FuncMatched {
			matched++
		}
		// Every true pair keeps substantial coverage (the paper's Fig. 8
		// bars for distant versions sit near 50%, below the α threshold
		// in the worst case but never near zero).
		if r.Direct+r.ViaRewrite <= 0.25 {
			t.Errorf("%s vs %s: coverage too low (%.2f + %.2f)",
				r.Query, r.Exe, r.Direct, r.ViaRewrite)
		}
	}
	if frac := float64(matched) / float64(len(rows)); frac < 0.8 {
		t.Errorf("only %.0f%% of true pairs matched", frac*100)
	}
	if c := RewriteContribution(rows); c <= 0 {
		t.Errorf("rewrite contribution = %.3f, want > 0", c)
	}
	var buf bytes.Buffer
	RenderFig8(&buf, rows)
}

func TestTable4RewriteCostsMore(t *testing.T) {
	skipInShort(t)
	rows, err := Table4(80, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	var tAlign, tRW, fAlign, fRW Timing
	for _, r := range rows {
		switch r.Item + "/" + r.Op {
		case "Tracelet/Align":
			tAlign = r
		case "Tracelet/Align&RW":
			tRW = r
		case "Function/Align":
			fAlign = r
		case "Function/Align&RW":
			fRW = r
		}
	}
	// Align+RW costs more than align, counted rather than timed: it
	// compares every pair align does and takes pairs on to the rewrite
	// stage besides, which align never does.
	for _, c := range []struct {
		item      string
		align, rw Timing
	}{{"tracelet", tAlign, tRW}, {"function", fAlign, fRW}} {
		if c.align.Work.Pairs == 0 || c.rw.Work.Pairs != c.align.Work.Pairs {
			t.Errorf("%s align+RW compared %d pairs, align %d; want the same, nonzero", c.item, c.rw.Work.Pairs, c.align.Work.Pairs)
		}
		if c.align.Work.Rewrites != 0 || c.rw.Work.Rewrites == 0 {
			t.Errorf("%s align rewrote %d pairs, align+RW %d; want none and some", c.item, c.align.Work.Rewrites, c.rw.Work.Rewrites)
		}
	}
	var buf bytes.Buffer
	RenderTable4(&buf, rows)
}

func TestOptLevelsShape(t *testing.T) {
	skipInShort(t)
	rows, err := OptLevels(optProbeSrc, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[string]OptLevelRow{}
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	if !byLevel["O1"].Match {
		t.Errorf("O1 query should find O1 builds (score %.3f)", byLevel["O1"].Score)
	}
	if !byLevel["O2"].Match {
		t.Errorf("O1 query should find O2 builds (score %.3f)", byLevel["O2"].Score)
	}
	if byLevel["O0"].Match {
		t.Errorf("O1 query should NOT find O0 builds (score %.3f)", byLevel["O0"].Score)
	}
	if byLevel["Os"].Match {
		t.Errorf("O1 query should NOT find Os builds (score %.3f)", byLevel["Os"].Score)
	}
	if byLevel["O0"].Score >= byLevel["O2"].Score {
		t.Errorf("O0 score %.3f should be below O2 score %.3f",
			byLevel["O0"].Score, byLevel["O2"].Score)
	}
	var buf bytes.Buffer
	RenderOptLevels(&buf, rows)
}

func TestAblationRewriteMatters(t *testing.T) {
	skipInShort(t)
	env := sharedEnv(t)
	rows := env.Ablation()
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	full := byName["full (rewrite, skip<0.5)"]
	none := byName["no rewrite"]
	noskip := byName["rewrite, skip<0.3"]
	// The rewrite engine must widen the separation margin.
	if full.Separation <= none.Separation {
		t.Errorf("rewrite should widen separation: full %+.3f vs none %+.3f",
			full.Separation, none.Separation)
	}
	// Skipping hopeless rewrites must not change accuracy (§6.3: pairs
	// below 50%% are not improved by rewriting).
	if noskip.CROC < full.CROC-0.02 {
		t.Errorf("skip optimization changed accuracy: %.3f vs %.3f",
			noskip.CROC, full.CROC)
	}
}

func TestSmallFunctionsLimitation(t *testing.T) {
	skipInShort(t)
	rows, err := SmallFunctions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatal("too few rows")
	}
	first, last := rows[0], rows[len(rows)-1]
	// The degenerate end of the limitation: a function with fewer blocks
	// than k yields no tracelets and cannot be matched at all, even
	// against its own source in another context.
	if first.Tracelets != 0 || first.CtxScore != 0 {
		t.Errorf("trivial function should be unmatchable: %+v", first)
	}
	// Large functions keep a wide margin over the best noise score.
	if last.CtxScore-last.NoiseScore < 0.5 {
		t.Errorf("large function margin too small: ctx %.2f noise %.2f",
			last.CtxScore, last.NoiseScore)
	}
	if last.Blocks <= rows[1].Blocks {
		t.Errorf("blocks should grow with statement budget")
	}
	var buf bytes.Buffer
	RenderSmallFunctions(&buf, rows)
	RenderAblation(&buf, sharedEnv(t).Ablation())
}

func TestInlinedContainment(t *testing.T) {
	skipInShort(t)
	rows, err := Inlined()
	if err != nil {
		t.Fatal(err)
	}
	byNorm := map[string]InlinedRow{}
	for _, r := range rows {
		byNorm[r.Norm] = r
	}
	// Containment must score at least as high as ratio, and the gap is
	// the point of the paper's Section 8 remark.
	if byNorm["containment"].Score < byNorm["ratio"].Score {
		t.Errorf("containment (%.3f) should be >= ratio (%.3f)",
			byNorm["containment"].Score, byNorm["ratio"].Score)
	}
	if byNorm["containment"].Score <= 0 {
		t.Error("containment found nothing at all")
	}
	var buf bytes.Buffer
	RenderInlined(&buf, rows)
}

// renderTables renders every table the shared corpus feeds, in the order
// tracy experiments prints them. Table 4 is left out: it times.
func renderTables(env *Env) []byte {
	var buf bytes.Buffer
	RenderTable1(&buf, env.Table1())
	RenderTable2(&buf, env.Table2())
	RenderKSweep(&buf, env.KSweep())
	RenderTable3(&buf, env.Table3())
	RenderFig8(&buf, env.Fig8())
	RenderAblation(&buf, env.Ablation())
	return buf.Bytes()
}

// TestTablesGolden pins every digit of the small-scale tables: Table 1,
// Table 2, the k sweep, Table 3, Fig. 8 and the ablation must print the
// text recorded in testdata/tables_small.golden byte for byte. The shape
// tests above say what the numbers mean; this one says they did not move.
func TestTablesGolden(t *testing.T) {
	skipInShort(t)
	want, err := os.ReadFile("testdata/tables_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderTables(sharedEnv(t))
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
