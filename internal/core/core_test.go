package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// liftListing builds a prep.Function directly from a listing (no binary
// round trip needed for matcher unit tests).
func liftListing(t *testing.T, name, src string) *prep.Function {
	t.Helper()
	insts, labels, err := asm.ParseListing(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.BuildListing(name, insts, labels)
	if err != nil {
		t.Fatal(err)
	}
	return &prep.Function{Name: name, Graph: g}
}

// srcA is a small function in the shape of the paper's doCommand1.
const srcA = `
	push ebp
	mov ebp, esp
	sub esp, 18h
	mov esi, [ebp+arg_0]
	mov [ebp+var_4], esi
	cmp esi, 1
	jz b3
	mov ecx, [ebp+var_4]
	add ecx, esi
	cmp ecx, 2
	jnz b5
	mov edx, [ebp+var_4]
	push edx
	push offset aMsg
	call _printf
	jmp b5
b3:
	mov ecx, 1
	mov [ebp+var_8], ecx
	push ecx
	call _printf
b5:
	mov eax, 1
	mov esp, ebp
	pop ebp
	retn
`

// srcARenamed is srcA compiled "in a different context": registers and
// stack layout changed throughout, same structure and semantics.
const srcARenamed = `
	push ebp
	mov ebp, esp
	sub esp, 28h
	mov ebx, [ebp+arg_0]
	mov [ebp+var_C], ebx
	cmp ebx, 1
	jz b3
	mov edi, [ebp+var_C]
	add edi, ebx
	cmp edi, 2
	jnz b5
	mov esi, [ebp+var_C]
	push esi
	push offset aMsg
	call _printf
	jmp b5
b3:
	mov edi, 1
	mov [ebp+var_18], edi
	push edi
	call _printf
b5:
	mov eax, 1
	mov esp, ebp
	pop ebp
	retn
`

// srcB is structurally similar but entirely different code.
const srcB = `
	mov eax, [esp+4]
	test eax, eax
	jz zero
	imul eax, eax, 0Ch
	shr eax, 2
	jmp out_
zero:
	xor eax, eax
out_:
	retn
`

func TestSelfSimilarityIsPerfect(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	d := Decompose(liftListing(t, "a", srcA), 3)
	if len(d.Tracelets) == 0 {
		t.Fatal("no tracelets extracted")
	}
	res := m.Compare(d, d)
	if res.SimilarityScore != 1.0 {
		t.Errorf("self similarity = %v, want 1.0", res.SimilarityScore)
	}
	if !res.IsMatch {
		t.Error("self comparison should match")
	}
	if res.MatchedRewrite != 0 {
		t.Errorf("self comparison needed %d rewrites", res.MatchedRewrite)
	}
	if res.MatchedDirect != res.RefTracelets {
		t.Errorf("direct matches %d != ref tracelets %d", res.MatchedDirect, res.RefTracelets)
	}
}

func TestRenamedVersionMatchesViaRewrite(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	res := m.Compare(ref, tgt)
	if !res.IsMatch {
		t.Errorf("renamed version should match: %+v", res)
	}
	if res.SimilarityScore < 0.99 {
		t.Errorf("renamed similarity = %v, want ~1.0", res.SimilarityScore)
	}
	// Some tracelets need the rewrite engine (register/offset changes).
	if res.MatchedRewrite == 0 {
		t.Errorf("expected some rewrite-only matches: %+v", res)
	}
}

func TestRewriteDisabledMissesRenames(t *testing.T) {
	opts := DefaultOptions()
	opts.UseRewrite = false
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	without := m.Compare(ref, tgt)

	opts.UseRewrite = true
	with := NewMatcher(opts).Compare(ref, tgt)
	if without.Matched() >= with.Matched() {
		t.Errorf("rewrite should increase matches: without=%d with=%d",
			without.Matched(), with.Matched())
	}
}

func TestUnrelatedFunctionScoresLow(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "b", srcB), 3)
	res := m.Compare(ref, tgt)
	if res.IsMatch {
		t.Errorf("unrelated functions matched: %+v", res)
	}
	if res.SimilarityScore > 0.3 {
		t.Errorf("unrelated similarity = %v, want low", res.SimilarityScore)
	}
}

func TestK1Matching(t *testing.T) {
	opts := DefaultOptions()
	opts.K = 1
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 1)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 1)
	res := m.Compare(ref, tgt)
	if !res.IsMatch {
		t.Errorf("k=1 renamed comparison should still match: %+v", res)
	}
}

func TestEmptyReference(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	// Single-block function has no 3-tracelets.
	small := Decompose(liftListing(t, "s", "mov eax, 1\nretn"), 3)
	other := Decompose(liftListing(t, "a", srcA), 3)
	res := m.Compare(small, other)
	if res.SimilarityScore != 0 || res.IsMatch {
		t.Errorf("empty reference result: %+v", res)
	}
}

// compareEach is CompareEachCtx over a slice of targets, held to no floor.
func compareEach(cc context.Context, m *Matcher, ref *Decomposed, targets []*Decomposed) ([]Result, error) {
	out, _, err := m.CompareEachCtx(cc, ref, len(targets), func(i int) (*Decomposed, error) { return targets[i], nil }, nil)
	return out, err
}

func TestCompareEachMatchesCompare(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	targets := []*Decomposed{
		Decompose(liftListing(t, "a2", srcARenamed), 3),
		Decompose(liftListing(t, "b", srcB), 3),
		Decompose(liftListing(t, "a3", srcA), 3),
	}
	many, _ := compareEach(context.Background(), m, ref, targets)
	if len(many) != 3 {
		t.Fatalf("got %d results", len(many))
	}
	for i, tgt := range targets {
		single := m.Compare(ref, tgt)
		if many[i].SimilarityScore != single.SimilarityScore || many[i].Name != single.Name {
			t.Errorf("CompareEachCtx[%d] = %+v, Compare = %+v", i, many[i], single)
		}
	}
	if !many[0].IsMatch || many[1].IsMatch || !many[2].IsMatch {
		t.Errorf("match pattern wrong: %v %v %v", many[0].IsMatch, many[1].IsMatch, many[2].IsMatch)
	}
}

func TestResultAccounting(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	res := m.Compare(ref, tgt)
	if res.Matched() > res.RefTracelets {
		t.Errorf("matched %d > ref tracelets %d", res.Matched(), res.RefTracelets)
	}
	if res.PairsCompared == 0 {
		t.Error("no pairs compared")
	}
	if got := res.MatchedDirect + res.MatchedRewrite; got != res.Matched() {
		t.Errorf("Matched() inconsistent: %d", got)
	}
}

func TestContainmentNormalization(t *testing.T) {
	opts := DefaultOptions()
	opts.Norm = align.Containment
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	res := m.Compare(ref, tgt)
	if !res.IsMatch {
		t.Errorf("containment normalization should also match: %+v", res)
	}
}

func TestDecomposeStats(t *testing.T) {
	d := Decompose(liftListing(t, "a", srcA), 3)
	if d.NumBlocks == 0 || d.NumInsts == 0 {
		t.Errorf("stats empty: %+v", d)
	}
	if d.K != 3 {
		t.Errorf("K = %d", d.K)
	}
	if len(d.distinct) == 0 {
		t.Fatal("no distinct blocks recorded")
	}
	for i := range d.Tracelets {
		if int(d.ident[i]) != align.IdentityScore(d.Tracelets[i].Insts()) {
			t.Errorf("identity score mismatch at %d", i)
		}
		if len(d.blockIDs(i)) != d.Tracelets[i].K() {
			t.Errorf("block id count mismatch at %d", i)
		}
		for j, id := range d.blockIDs(i) {
			b := d.distinct[id]
			if b.hash != hashInsts(d.Tracelets[i].Blocks[j]) {
				t.Errorf("tracelet %d block %d mapped to wrong distinct block", i, j)
			}
			if int(b.ident) != align.IdentityScore(d.DistinctBlocks()[id]) {
				t.Errorf("distinct block %d identity score wrong", id)
			}
		}
	}
}

// TestFingerprint: the fingerprint is a function of the decomposed content
// — equal content gives equal fingerprints whatever the function is
// called, and one changed argument, a different tracelet size or a
// different compilation of the same source gives a different one.
func TestFingerprint(t *testing.T) {
	a := Decompose(liftListing(t, "a", srcA), 3)
	if got := Decompose(liftListing(t, "other_name", srcA), 3).Fingerprint(); got != a.Fingerprint() {
		t.Errorf("equal content, fingerprints %#x and %#x", a.Fingerprint(), got)
	}
	oneArg := strings.Replace(srcA, "sub esp, 18h", "sub esp, 1Ch", 1)
	if oneArg == srcA {
		t.Fatal("the one-argument edit did not apply")
	}
	for name, d := range map[string]*Decomposed{
		"one changed argument": Decompose(liftListing(t, "a", oneArg), 3),
		"a different k":        Decompose(liftListing(t, "a", srcA), 2),
		"renamed registers":    Decompose(liftListing(t, "a", srcARenamed), 3),
	} {
		if d.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: fingerprint unchanged (%#x)", name, d.Fingerprint())
		}
	}
	// Over real compiler output — every source at three optimization
	// levels — fingerprints and rendered content identify each other.
	byContent, byPrint := make(map[string]uint64), make(map[uint64]string)
	for _, d := range campaignSample(t, 24) {
		content := fmt.Sprint(d.K, d.NumBlocks, d.NumInsts)
		for _, tr := range d.Tracelets {
			content += "\n--\n" + tr.String()
		}
		if fp, seen := byContent[content]; seen && fp != d.Fingerprint() {
			t.Errorf("%s: equal content, fingerprints %#x and %#x", d.Name, fp, d.Fingerprint())
		}
		if other, seen := byPrint[d.Fingerprint()]; seen && other != content {
			t.Errorf("%s: fingerprint %#x shared by different content", d.Name, d.Fingerprint())
		}
		byContent[content], byPrint[d.Fingerprint()] = d.Fingerprint(), content
	}
	if len(byPrint) < 20 {
		t.Errorf("only %d distinct fingerprints in the campaign sample", len(byPrint))
	}
}

func TestExplainAgreesWithCompare(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	res := m.Compare(ref, tgt)
	ex := m.Explain(ref, tgt)
	if len(ex) != res.Matched() {
		t.Errorf("Explain found %d matches, Compare %d", len(ex), res.Matched())
	}
	viaRewrite := 0
	for _, tm := range ex {
		if tm.ViaRewrite {
			viaRewrite++
		}
		if tm.Score <= m.Opts.Beta {
			t.Errorf("explained match below beta: %+v", tm)
		}
		if len(tm.RefBlocks) != 3 || len(tm.TgtBlocks) != 3 {
			t.Errorf("block index shape wrong: %+v", tm)
		}
	}
	if viaRewrite != res.MatchedRewrite {
		t.Errorf("Explain rewrite count %d, Compare %d", viaRewrite, res.MatchedRewrite)
	}
}

func TestExplainNoMatches(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "b", srcB), 3)
	ex := m.Explain(ref, tgt)
	res := m.Compare(ref, tgt)
	if len(ex) != res.Matched() {
		t.Errorf("Explain %d vs Compare %d", len(ex), res.Matched())
	}
}

func TestBestScoresConsistentWithCompare(t *testing.T) {
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	pre, post := m.BestScores(ref, tgt)
	if len(pre) != len(ref.Tracelets) || len(post) != len(pre) {
		t.Fatal("shape wrong")
	}
	matched := 0
	for i := range post {
		if post[i] < pre[i] {
			t.Errorf("post < pre at %d", i)
		}
		if post[i] > m.Opts.Beta {
			matched++
		}
	}
	res := m.Compare(ref, tgt)
	if matched < res.Matched() {
		t.Errorf("BestScores matched %d < Compare %d", matched, res.Matched())
	}
}

func TestMismatchedKIsSkipped(t *testing.T) {
	// A 2-block function produces 2-tracelets only; comparing k=3 against
	// it must not panic and must yield zero matches.
	m := NewMatcher(DefaultOptions())
	ref := Decompose(liftListing(t, "a", srcA), 3)
	small := Decompose(liftListing(t, "s", "cmp eax, 1\njz x\nnop\nx:\nretn"), 3)
	res := m.Compare(ref, small)
	if res.Matched() != 0 {
		t.Errorf("matched %d against a too-small target", res.Matched())
	}
}

func TestWorkersOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	m1 := NewMatcher(opts)
	opts.Workers = 8
	m8 := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	targets := []*Decomposed{
		Decompose(liftListing(t, "a2", srcARenamed), 3),
		Decompose(liftListing(t, "b", srcB), 3),
	}
	r1, _ := compareEach(context.Background(), m1, ref, targets)
	r8, _ := compareEach(context.Background(), m8, ref, targets)
	for i := range r1 {
		if r1[i].SimilarityScore != r8[i].SimilarityScore {
			t.Errorf("worker count changed results at %d", i)
		}
	}
}

// TestWorkersNegativeClamped: Workers < 0 must clamp to serial execution
// (regression for the old behavior where any non-positive value meant
// GOMAXPROCS) and produce the same results.
func TestWorkersNegativeClamped(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = -1
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	targets := []*Decomposed{
		Decompose(liftListing(t, "a2", srcARenamed), 3),
		Decompose(liftListing(t, "b", srcB), 3),
		Decompose(liftListing(t, "a3", srcA), 3),
	}
	got, _ := compareEach(context.Background(), m, ref, targets)
	if len(got) != len(targets) {
		t.Fatalf("got %d results, want %d", len(got), len(targets))
	}
	for i, tgt := range targets {
		want := m.Compare(ref, tgt)
		if got[i].SimilarityScore != want.SimilarityScore {
			t.Errorf("Workers=-1 changed result %d: %v vs %v",
				i, got[i].SimilarityScore, want.SimilarityScore)
		}
	}
}

// TestTelemetryCountersConsistent: the collector's aggregates must agree
// with the per-Result accounting, and telemetry must not perturb scores.
func TestTelemetryCountersConsistent(t *testing.T) {
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)

	plain := NewMatcher(DefaultOptions()).Compare(ref, tgt)

	// Exhaustive mode (Prune=false) keeps the cache-lookup arithmetic
	// exact: every pair assembles K block scores, none is skipped.
	opts := DefaultOptions()
	opts.Prune = false
	opts.Tel = telemetry.New()
	m := NewMatcher(opts)
	res := m.Compare(ref, tgt)

	if res.SimilarityScore != plain.SimilarityScore || res.Matched() != plain.Matched() {
		t.Errorf("telemetry changed the verdict: %+v vs %+v", res, plain)
	}
	tel := opts.Tel
	if got := tel.Get(telemetry.Compares); got != 1 {
		t.Errorf("compares = %d, want 1", got)
	}
	if got := tel.Get(telemetry.PairsCompared); got != uint64(res.PairsCompared) {
		t.Errorf("pairs_compared = %d, Result says %d", got, res.PairsCompared)
	}
	if got := tel.Get(telemetry.RewritesAttempted); got != uint64(res.PairsRewritten) {
		t.Errorf("rewrites_attempted = %d, Result says %d", got, res.PairsRewritten)
	}
	if got := tel.Get(telemetry.RewritesSucceeded); got != uint64(res.MatchedRewrite) {
		t.Errorf("rewrites_succeeded = %d, Result says %d", got, res.MatchedRewrite)
	}
	if res.IsMatch && tel.Get(telemetry.Matches) != 1 {
		t.Error("match not counted")
	}
	// Every pair assembles K block alignments, each a cache hit or miss.
	lookups := tel.Get(telemetry.BlockCacheHits) + tel.Get(telemetry.BlockCacheMisses)
	if lookups == 0 || lookups%uint64(res.PairsCompared) != 0 {
		t.Errorf("cache lookups %d not a multiple of pairs %d", lookups, res.PairsCompared)
	}
	// The rewrite path drives the CSP, which must have reported its solves.
	if res.PairsRewritten > 0 && tel.Get(telemetry.CSPSolves) == 0 {
		t.Error("rewrites ran but no CSP solves recorded")
	}
	snap := tel.Snapshot()
	for _, h := range []telemetry.Hist{telemetry.CompareLatency, telemetry.PairLatency} {
		if snap.Histograms[h.String()].Count == 0 {
			t.Errorf("histogram %s empty after instrumented compare", h)
		}
	}
}

// TestTraceSpanDecisionTrail: a traced compare must leave one compare
// child with per-tracelet children carrying the decision attributes.
func TestTraceSpanDecisionTrail(t *testing.T) {
	root := telemetry.StartSpan("test")
	opts := DefaultOptions()
	opts.Trace = root
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	res := m.Compare(ref, tgt)
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "compare:a2" {
		t.Fatalf("trace children wrong: %d", len(kids))
	}
	cmp := kids[0]
	if cmp.Attr("pairs_compared") != int64(res.PairsCompared) {
		t.Errorf("span pairs_compared = %d, want %d",
			cmp.Attr("pairs_compared"), res.PairsCompared)
	}
	if got := cmp.Attr("verdict_match"); (got == 1) != res.IsMatch {
		t.Errorf("span verdict %d vs result %v", got, res.IsMatch)
	}
	tracelets := cmp.Children()
	if len(tracelets) != len(ref.Tracelets) {
		t.Errorf("tracelet spans = %d, want %d", len(tracelets), len(ref.Tracelets))
	}
	viaRewrite := 0
	for _, ts := range tracelets {
		if ts.Attr("via_rewrite") == 1 {
			viaRewrite++
		}
	}
	if viaRewrite != res.MatchedRewrite {
		t.Errorf("span rewrite matches %d, result %d", viaRewrite, res.MatchedRewrite)
	}
}

// TestDecomposeT: the telemetry variant must match Decompose and record
// its work.
func TestDecomposeT(t *testing.T) {
	tel := telemetry.New()
	fn := liftListing(t, "a", srcA)
	d := DecomposeT(fn, 3, tel)
	plain := Decompose(fn, 3)
	if len(d.Tracelets) != len(plain.Tracelets) {
		t.Errorf("DecomposeT diverges: %d vs %d tracelets",
			len(d.Tracelets), len(plain.Tracelets))
	}
	if tel.Get(telemetry.FunctionsDecomposed) != 1 {
		t.Error("function not counted")
	}
	if tel.Snapshot().Histograms["decompose_latency"].Count != 1 {
		t.Error("decompose latency not recorded")
	}
	// Nil collector must be identical to Decompose.
	if d2 := DecomposeT(fn, 3, nil); len(d2.Tracelets) != len(plain.Tracelets) {
		t.Error("DecomposeT(nil) diverges")
	}
}

// TestExplainTelemetry: Explain must report cache and rewrite counters to
// the collector (the satellite behind `tracy compare -explain`).
func TestExplainTelemetry(t *testing.T) {
	opts := DefaultOptions()
	opts.Tel = telemetry.New()
	m := NewMatcher(opts)
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	ex := m.Explain(ref, tgt)
	tel := opts.Tel
	if tel.Get(telemetry.BlockCacheHits)+tel.Get(telemetry.BlockCacheMisses) == 0 {
		t.Error("Explain recorded no cache traffic")
	}
	viaRewrite := uint64(0)
	for _, tm := range ex {
		if tm.ViaRewrite {
			viaRewrite++
		}
	}
	if got := tel.Get(telemetry.RewritesSucceeded); got != viaRewrite {
		t.Errorf("rewrites_succeeded = %d, explain found %d", got, viaRewrite)
	}
}
